// Reproduces Figure 17: E2-NVM's bit updates over time as memory content
// and the incoming workload change through five scenarios:
//   I   train on random content, stream MNIST-like (plus deletes) —
//       flips fluctuate, narrowing as recycled items repopulate the DAP;
//   II  retrain on current content, stream more MNIST-like — low, stable;
//   III stream a 2:1 MNIST:Fashion mixture — immediate degradation;
//   IV  stream CIFAR-like — worse still (unseen distribution over
//       foreign content);
//   V   retrain, keep streaming CIFAR-like — recovers quickly.

#include <cstdio>

#include "bench/bench_util.h"

namespace e2nvm {
namespace {

constexpr size_t kSegments = 192;
constexpr size_t kBits = 784;
constexpr size_t kClusters = 10;
constexpr size_t kWindow = 30;  // Writes per reported point.

struct Tracker {
  core::PlacementEngine* engine;
  nvm::NvmDevice* device;
  std::vector<uint64_t> live;
  Rng rng{13};
  uint64_t last_flips = 0;
  uint64_t t = 0;

  void Stream(const char* phase, const std::vector<BitVector>& items,
              double delete_fraction) {
    uint64_t in_window = 0;
    for (const BitVector& item : items) {
      auto addr = engine->Place(item);
      if (!addr.ok()) {
        std::fprintf(stderr, "place failed: %s\n",
                     addr.status().ToString().c_str());
        return;
      }
      live.push_back(*addr);
      if (rng.NextDouble() < delete_fraction && !live.empty()) {
        size_t idx = rng.NextBounded(live.size());
        engine->Release(live[idx]);
        live[idx] = live.back();
        live.pop_back();
      }
      ++t;
      if (++in_window == kWindow) {
        uint64_t flips = device->stats().total_bits_flipped();
        std::printf("%8llu %8s %14.1f\n",
                    static_cast<unsigned long long>(t), phase,
                    static_cast<double>(flips - last_flips) / kWindow);
        last_flips = flips;
        in_window = 0;
      }
    }
  }
};

void Run() {
  bench::PrintBanner("Figure 17",
                     "bit updates per write over time across distribution "
                     "shifts and retraining");
  std::printf("%8s %8s %14s\n", "write#", "phase", "flips/write(win)");

  schemes::Dcw dcw;
  bench::Rig rig(kSegments, kBits, 0, &dcw);
  // Scenario 1 seed: completely random content.
  {
    Rng seed_rng(1);
    for (size_t i = 0; i < kSegments; ++i) {
      BitVector v(kBits);
      v.Randomize(seed_rng);
      rig.ctrl->Seed(i, v);
    }
  }
  auto cfg = bench::DefaultModel(kBits, kClusters);
  auto engine = bench::MakeEngine(rig, std::make_unique<core::E2Model>(cfg));
  Tracker tracker{engine.get(), rig.device.get()};
  tracker.last_flips = rig.device->stats().total_bits_flipped();

  auto mnist = workload::MakeMnistLike(900, 3);
  auto fashion = workload::MakeFashionLike(400, 3);
  auto cifar = workload::ResizeItems(
      workload::MakeCifarLike(700, 7, /*noise=*/0.06), kBits);

  // I: MNIST over random content, with deletes recycling MNIST items.
  std::vector<BitVector> s1(mnist.items.begin(), mnist.items.begin() + 540);
  tracker.Stream("I", s1, 0.95);

  // II: retrain on current content, stream more MNIST.
  if (!engine->Retrain().ok()) std::fprintf(stderr, "retrain failed\n");
  std::vector<BitVector> s2(mnist.items.begin() + 540,
                            mnist.items.begin() + 810);
  tracker.Stream("II", s2, 0.95);

  // III: 2:1 MNIST:Fashion mixture.
  std::vector<BitVector> s3;
  for (size_t i = 0; i < 270; ++i) {
    s3.push_back(i % 3 == 2 ? fashion.items[i % fashion.items.size()]
                            : mnist.items[(810 + i) % mnist.items.size()]);
  }
  tracker.Stream("III", s3, 0.95);

  // IV: CIFAR-like, unseen.
  std::vector<BitVector> s4(cifar.items.begin(), cifar.items.begin() + 300);
  tracker.Stream("IV", s4, 0.95);

  // V: retrain on current content, keep streaming CIFAR-like.
  if (!engine->Retrain().ok()) std::fprintf(stderr, "retrain failed\n");
  std::vector<BitVector> s5(cifar.items.begin() + 300,
                            cifar.items.begin() + 580);
  tracker.Stream("V", s5, 0.95);

  std::printf("\nexpect: I noisy then narrowing; II low/stable; III jumps "
              "up; IV worse; V recovers after retraining\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
