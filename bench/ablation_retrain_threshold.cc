// Ablation (DESIGN.md §5): the retraining trigger (§4.1.4 — "we set a
// minimum threshold to the number of addresses in each cluster and
// trigger the re-training process"). Sweeps the per-cluster free-list
// threshold and reports how many retrains fire during a drift workload
// and the resulting placement quality.

#include <cstdio>

#include "bench/bench_util.h"

namespace e2nvm {
namespace {

constexpr size_t kSegments = 160;
constexpr size_t kBits = 784;
constexpr size_t kClusters = 8;

void Run() {
  bench::PrintBanner("Ablation: retrain trigger threshold",
                     "retrains fired and flips under distribution drift");
  std::printf("%10s %10s %14s %16s\n", "threshold", "retrains",
              "flips/write", "train_Gflop");
  auto mnist = workload::MakeMnistLike(kSegments + 250, 3);
  auto fashion = workload::MakeFashionLike(250, 3);
  for (size_t threshold : {0u, 1u, 2u, 4u, 8u}) {
    schemes::Dcw dcw;
    bench::Rig rig(kSegments, kBits, 0, &dcw);
    rig.SeedFrom(mnist);
    auto cfg = bench::DefaultModel(kBits, kClusters);
    core::PlacementEngine::Config ec;
    ec.first_segment = 0;
    ec.num_segments = kSegments;
    ec.auto_retrain = true;
    ec.retrain.min_free_per_cluster = threshold;
    ec.retrain.window = 64;
    ec.retrain.baseline_writes = 64;
    core::PlacementEngine engine(rig.ctrl.get(),
                                 std::make_unique<core::E2Model>(cfg), ec);
    if (!engine.Bootstrap().ok()) continue;
    // Drift: first MNIST-like, then Fashion-like.
    std::vector<BitVector> stream(mnist.items.begin() + kSegments,
                                  mnist.items.begin() + kSegments + 250);
    stream.insert(stream.end(), fashion.items.begin(),
                  fashion.items.end());
    auto r = bench::RunStream(engine, *rig.device, stream, 0.95, 7);
    std::printf("%10zu %10llu %14.1f %16.3f\n", threshold,
                static_cast<unsigned long long>(engine.stats().retrains),
                r.FlipsPerWrite(), engine.stats().train_flops * 1e-9);
  }
  std::printf("\nexpect: higher thresholds retrain more (more training "
              "cost) but keep flips lower through the drift\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
