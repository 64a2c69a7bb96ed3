// Ablation (paper §4.1.4): batching small key-value pairs into
// segment-sized writes. Compares direct per-pair placement against
// BatchWriter grouping, for small values over the same segment geometry:
// NVM write count, flips per stored data bit, and DAP pressure.

#include <cstdio>
#include <unordered_map>

#include "bench/bench_util.h"
#include "core/batch.h"
#include "placement/clusterer.h"

namespace e2nvm {
namespace {

constexpr size_t kSegBits = 2048;
constexpr size_t kSegments = 128;
constexpr size_t kPairs = 1500;

void Run() {
  bench::PrintBanner("Ablation: small-write batching",
                     "direct small placements vs BatchWriter grouping");
  std::printf("%10s %10s %12s %14s %14s\n", "value_b", "mode",
              "nvm_writes", "flips_per_bit", "pool_consumed");
  for (size_t value_bits : {64u, 128u, 256u}) {
    for (bool batched : {false, true}) {
      workload::ProtoConfig pc;
      pc.dim = kSegBits;
      pc.num_classes = 6;
      pc.samples = kSegments;
      pc.seed = 3;
      auto seed_ds = workload::MakeProtoDataset(pc);

      schemes::Dcw dcw;
      bench::Rig rig(kSegments, kSegBits, 0, &dcw);
      rig.SeedFrom(seed_ds);
      auto engine = bench::MakeEngine(
          rig, std::make_unique<placement::RawKMeansClusterer>(6, 42, 25));

      Rng rng(9);
      uint64_t user_bits = 0;
      size_t free_before = engine->pool().TotalFree();
      if (batched) {
        core::BatchWriter bw(engine.get(), kSegBits);
        for (uint64_t k = 0; k < kPairs; ++k) {
          BitVector v(value_bits);
          v.Randomize(rng);
          if (!bw.Put(k, v).ok()) break;
          user_bits += value_bits;
          // Churn: delete a quarter of older keys.
          if (k > 16 && rng.NextDouble() < 0.25) {
            (void)bw.Delete(rng.NextBounded(k));
          }
        }
        (void)bw.Flush();
      } else {
        // Direct mode: one whole segment per small pair, matched churn.
        std::unordered_map<uint64_t, uint64_t> key_to_addr;
        for (uint64_t k = 0; k < kPairs; ++k) {
          BitVector v(value_bits);
          v.Randomize(rng);
          auto addr = engine->Place(v);
          if (!addr.ok()) break;
          user_bits += value_bits;
          key_to_addr[k] = *addr;
          if (k > 16 && rng.NextDouble() < 0.25) {
            auto it = key_to_addr.find(rng.NextBounded(k));
            if (it != key_to_addr.end()) {
              (void)engine->Release(it->second);
              key_to_addr.erase(it);
            }
          }
          // Direct small writes exhaust the pool quickly: recycle the
          // oldest live pairs once fewer than 8 addresses remain.
          while (engine->pool().TotalFree() < 8 &&
                 !key_to_addr.empty()) {
            auto it = key_to_addr.begin();
            (void)engine->Release(it->second);
            key_to_addr.erase(it);
          }
        }
      }
      double fpb =
          static_cast<double>(rig.device->stats().total_bits_flipped()) /
          static_cast<double>(user_bits);
      std::printf("%10zu %10s %12llu %14.4f %14zd\n", value_bits,
                  batched ? "batched" : "direct",
                  static_cast<unsigned long long>(
                      rig.device->stats().writes),
                  fpb,
                  static_cast<ssize_t>(free_before) -
                      static_cast<ssize_t>(engine->pool().TotalFree()));
    }
  }
  std::printf("\nexpect: batching performs ~segment/value-ratio fewer NVM "
              "writes for the same logical data; direct mode must evict "
              "live pairs to survive (one whole segment per small "
              "value), while batching packs them\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
