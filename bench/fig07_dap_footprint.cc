// Reproduces Figure 7: DRAM memory used by E2-NVM for indexing different
// numbers of memory segments (PubMed-like data), against the energy
// consumption achieved with that many segments indexed.
//
// Reproduced shape: footprint grows linearly with indexed segments
// (8 bytes/address plus index nodes); energy per write falls steeply up
// to ~100K-1M segments and then flattens — the paper's "best of both
// worlds" zone.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/address_pool.h"
#include "index/rbtree.h"
#include "placement/clusterer.h"

namespace e2nvm {
namespace {

constexpr size_t kBits = 512;
constexpr size_t kClusters = 8;
constexpr size_t kWrites = 300;

void Run() {
  bench::PrintBanner("Figure 7",
                     "DAP+index DRAM footprint and energy per write vs "
                     "#indexed segments (PubMed-like)");
  std::printf("%10s %16s %16s %14s\n", "segments", "dap_bytes",
              "index_bytes", "pj/write");

  // Energy (placement quality) measured on simulatable sizes; footprint
  // additionally extrapolated to the paper's 1K..10M range below.
  for (size_t segments : {64u, 128u, 256u, 512u, 1024u}) {
    auto ds = workload::ResizeItems(
        workload::MakePubMedLike(segments + kWrites, kBits, kClusters, 3),
        kBits);
    schemes::Dcw dcw;
    bench::Rig rig(segments, kBits, 0, &dcw);
    rig.SeedFrom(ds);
    auto engine = bench::MakeEngine(
        rig, std::make_unique<placement::RawKMeansClusterer>(kClusters, 42,
                                                             25));

    // DRAM index over the live keys (RB-tree, as in Fig 3).
    index::RbTree tree;
    for (size_t i = 0; i < segments; ++i) tree.Put(i, i);

    std::vector<BitVector> stream(ds.items.begin() + segments,
                                  ds.items.end());
    auto r = bench::RunStream(*engine, *rig.device, stream, 0.95, 5);
    std::printf("%10zu %16zu %16zu %14.1f\n", segments,
                engine->pool().MemoryFootprintBytes(),
                tree.MemoryFootprintBytes(), r.PjPerWrite());
  }

  std::printf("\nfootprint extrapolation (8 B/address + 48 B/index node):\n");
  std::printf("%12s %18s\n", "segments", "DRAM_total_MB");
  for (double segs : {1e3, 1e4, 1e5, 1e6, 1e7}) {
    double bytes = segs * (8.0 + 48.0);
    std::printf("%12.0f %18.2f\n", segs, bytes / (1024.0 * 1024.0));
  }
  std::printf("\nexpect: energy/write flattens once segments >= ~256 "
              "(scaled analogue of the paper's 100K-1M sweet spot)\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
