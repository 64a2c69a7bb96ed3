// Reproduces Figure 13: E2-NVM's average updated-bits ratio and total
// memory energy across combinations of memory segment size and memory
// pool size, on the mixture of all the "real" workload families.
//
// Reproduced shape: performance is governed by the segment/pool ratio —
// the smaller the segment relative to the pool (i.e., the more segments
// available to choose from), the lower both the updated-bits ratio and
// the energy.

#include <cstdio>

#include "bench/bench_util.h"

namespace e2nvm {
namespace {

constexpr size_t kWrites = 250;
constexpr size_t kClusters = 8;

void Run() {
  bench::PrintBanner("Figure 13",
                     "updated-bits ratio & energy vs (pool size, segment "
                     "size), mixed real workloads");
  std::printf("%10s %8s %10s %12s %12s %12s\n", "pool_KB", "seg_B",
              "segments", "E2_fpb", "arb_fpb", "saved_%");
  for (size_t pool_kb : {16u, 64u, 256u}) {
    for (size_t seg_bytes : {64u, 256u, 1024u}) {
      size_t segment_bits = seg_bytes * 8;
      size_t segments = pool_kb * 1024 / seg_bytes;
      if (segments < kClusters * 2 || segments > 2048) {
        std::printf("%10zu %8zu %10zu %12s %12s %12s\n", pool_kb,
                    seg_bytes, segments, "-", "-", "-");
        continue;
      }
      // Average three dataset seeds: the geometry sweep changes the
      // content mix, and a paired arbitrary baseline plus seed averaging
      // isolates the placement effect.
      double e2_fpb = 0, arb_fpb = 0;
      for (uint64_t seed : {31u, 47u, 63u}) {
        auto ds = workload::MakeMixedRealDataset(segments + kWrites,
                                                 segment_bits, seed);
        std::vector<BitVector> stream(ds.items.begin() + segments,
                                      ds.items.end());

        schemes::Dcw dcw;
        bench::Rig rig(segments, segment_bits, 0, &dcw);
        rig.SeedFrom(ds);
        auto cfg = bench::DefaultModel(segment_bits, kClusters);
        cfg.pretrain_epochs = 4;
        cfg.seed = seed;
        auto engine =
            bench::MakeEngine(rig, std::make_unique<core::E2Model>(cfg));
        auto r = bench::RunStream(*engine, *rig.device, stream, 0.95, 5);

        schemes::Dcw dcw2;
        bench::Rig arb_rig(segments, segment_bits, 0, &dcw2);
        arb_rig.SeedFrom(ds);
        index::ArbitraryPlacer arb(arb_rig.ctrl.get(), 0, segments);
        auto rb = bench::RunStream(arb, *arb_rig.device, stream, 0.95, 5);
        e2_fpb += r.FlipsPerDataBit() / 3.0;
        arb_fpb += rb.FlipsPerDataBit() / 3.0;
      }
      double saved = 100.0 * (1.0 - e2_fpb / arb_fpb);
      std::printf("%10zu %8zu %10zu %12.4f %12.4f %12.1f\n", pool_kb,
                  seg_bytes, segments, e2_fpb, arb_fpb, saved);
    }
  }
  std::printf("\nexpect: within a pool size, smaller segments (more of "
              "them) save a larger fraction of flips vs arbitrary "
              "placement; tiny pools (few segments per cluster) save "
              "least\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
