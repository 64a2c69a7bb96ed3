// Reproduces Figure 19: the distribution of write activity under E2-NVM
// with k=30 clusters on a MNIST+Fashion mixture — (a) the CDF of how many
// times each *address* (segment) is written and (b) the CDF of how many
// times each memory *bit* flips, after warming the data zone and
// streaming ~4 updates per segment on average with interleaved deletes.
//
// Reproduced shape: both CDFs rise steeply and saturate at small counts —
// E2-NVM spreads writes across the whole zone (the paper reads
// P(address <= 10) = 81%, P(bit <= 5) = 85%, P(bit <= 7) = 98%).

#include <cstdio>

#include "bench/bench_util.h"

namespace e2nvm {
namespace {

constexpr size_t kSegments = 256;
constexpr size_t kBits = 784;
constexpr size_t kClusters = 30;

void Run() {
  bench::PrintBanner("Figure 19",
                     "wear CDFs: per-address writes and per-bit flips "
                     "(k=30, MNIST+Fashion mix)");
  // Mixture dataset.
  auto mnist = workload::MakeMnistLike(2000, 3);
  auto fashion = workload::MakeFashionLike(2000, 3);
  workload::BitDataset mix;
  mix.dim = kBits;
  for (size_t i = 0; i < 2000; ++i) {
    mix.items.push_back(mnist.items[i]);
    mix.items.push_back(fashion.items[i]);
    mix.labels.push_back(0);
    mix.labels.push_back(1);
  }

  schemes::Dcw dcw;
  bench::Rig rig(kSegments, kBits, 0, &dcw, /*track_bit_wear=*/true);
  rig.SeedFrom(mix);
  auto cfg = bench::DefaultModel(kBits, kClusters);
  auto engine = bench::MakeEngine(rig, std::make_unique<core::E2Model>(cfg));

  // Stream ~4 updates per segment with deletes making room (the paper:
  // warm 28K, stream 112K = 4x).
  std::vector<BitVector> stream;
  for (size_t i = 0; i < kSegments * 4; ++i) {
    stream.push_back(mix.items[(kSegments + i) % mix.items.size()]);
  }
  auto r = bench::RunStream(*engine, *rig.device, stream, 1.0, 5);
  std::printf("streamed %llu writes, %.1f flips/write\n",
              static_cast<unsigned long long>(r.writes),
              r.FlipsPerWrite());

  Histogram addr_hist = rig.device->SegmentWriteHistogram();
  std::printf("\nper-address write-count CDF:\n%8s %10s\n", "writes<=",
              "P");
  for (uint64_t v : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 8ull, 10ull,
                     12ull, 16ull}) {
    std::printf("%8llu %10.3f\n", static_cast<unsigned long long>(v),
                addr_hist.CdfAt(v));
  }
  std::printf("max address writes: %llu, mean %.2f\n",
              static_cast<unsigned long long>(addr_hist.Max()),
              addr_hist.Mean());

  auto bit_hist = rig.device->BitWearHistogram();
  if (bit_hist.ok()) {
    std::printf("\nper-bit flip-count CDF:\n%8s %10s\n", "flips<=", "P");
    for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 5ull, 7ull, 10ull, 15ull}) {
      std::printf("%8llu %10.3f\n", static_cast<unsigned long long>(v),
                  bit_hist->CdfAt(v));
    }
    std::printf("max bit flips: %llu\n",
                static_cast<unsigned long long>(bit_hist->Max()));
  }
  std::printf("\nexpect: address CDF saturates within ~2x the mean update "
              "count; bit CDF saturates at single-digit flips "
              "(paper: P(addr<=10)=81%%, P(bit<=5)=85%%, P(bit<=7)=98%%)\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
