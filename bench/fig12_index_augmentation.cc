// Reproduces Figure 12: the average number of bit updates per written
// data bit for five NVM data structures — B+-Tree, WiscKey, Path Hashing,
// FP-Tree, NoveLSM — before and after plugging them into E2-NVM.
//
// Reproduced shape: native B+-Tree is worst (sorted leaves shift values),
// NoveLSM pays flush/compaction rewrites, WiscKey pays GC relocations,
// FP-Tree and Path Hashing are already write-friendly; plugging each into
// E2-NVM (values placed by the VAE+K-means engine, structure keeps
// pointers) cuts bit updates by a large factor (paper: up to 91%).

#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "index/bptree.h"
#include "index/fptree.h"
#include "index/novelsm.h"
#include "index/path_hashing.h"
#include "index/placed_index.h"
#include "index/wisckey.h"

namespace e2nvm {
namespace {

constexpr size_t kBits = 512;
constexpr size_t kKeys = 200;
constexpr size_t kOps = 800;
constexpr size_t kEngineSegments = 256;

workload::BitDataset Values(uint64_t seed) {
  workload::ProtoConfig pc;
  pc.dim = kBits;
  pc.num_classes = 8;
  pc.samples = kKeys + kOps + kEngineSegments;
  pc.noise = 0.04;
  pc.seed = seed;
  return workload::MakeProtoDataset(pc);
}

/// Runs the standard churn (load kKeys, then zipfian updates + deletes)
/// against any NvmKvIndex; returns flips per written data bit.
double Churn(index::NvmKvIndex& idx, nvm::NvmDevice& device,
             const workload::BitDataset& vals) {
  Rng rng(3);
  ZipfianGenerator zipf(kKeys, 0.9);
  std::vector<uint32_t> version(kKeys, 0);
  for (uint64_t k = 0; k < kKeys; ++k) {
    Status s = idx.Put(k, vals.items[k]);
    if (!s.ok()) {
      std::fprintf(stderr, "%s load: %s\n",
                   std::string(idx.name()).c_str(),
                   s.ToString().c_str());
      return -1;
    }
  }
  device.ResetStats();
  uint64_t user_bits = 0;  // Logical data the *user* wrote; structural
                           // movement (shifts, GC, compaction) must show
                           // up in the numerator, not the denominator.
  for (size_t op = 0; op < kOps; ++op) {
    uint64_t key = zipf.Next(rng);
    if (rng.NextDouble() < 0.15) {
      if (idx.Delete(key).ok()) version[key] = 0;
      continue;
    }
    size_t vi = (key + ++version[key] * 37) % vals.items.size();
    Status s = idx.Put(key, vals.items[vi]);
    if (!s.ok()) return -1;
    user_bits += kBits;
  }
  return static_cast<double>(device.stats().total_bits_flipped()) /
         static_cast<double>(user_bits);
}

template <typename MakeIndex>
double RunNative(MakeIndex make, uint64_t data_seed) {
  schemes::Dcw dcw;
  bench::Rig rig(4096, kBits, 0, &dcw);
  auto idx = make(rig);
  return Churn(*idx, *rig.device, Values(data_seed));
}

double RunAugmented(uint64_t data_seed) {
  schemes::Dcw dcw;
  bench::Rig rig(kEngineSegments, kBits, 0, &dcw);
  auto vals = Values(data_seed);
  rig.SeedFrom(vals);
  auto model_cfg = bench::DefaultModel(kBits, 8);
  auto engine =
      bench::MakeEngine(rig, std::make_unique<core::E2Model>(model_cfg));
  index::PlacedKvIndex idx("augmented", engine.get(), kBits);
  return Churn(idx, *rig.device, vals);
}

void Run() {
  bench::PrintBanner("Figure 12",
                     "bit updates per written data bit: native structures "
                     "vs plugged into E2-NVM");
  std::printf("%14s %14s %14s %14s\n", "structure", "native",
              "with_E2-NVM", "reduction_%");

  struct Entry {
    const char* label;
    std::function<double()> native;
  };
  Entry entries[] = {
      {"B+Tree",
       [] {
         return RunNative(
             [](bench::Rig& rig) {
               return std::make_unique<index::BpTreeKv>(
                   rig.ctrl.get(),
                   index::BpTreeKv::Config{.leaf_capacity = 16,
                                           .value_bits = kBits});
             },
             21);
       }},
      {"WiscKey",
       [] {
         return RunNative(
             [](bench::Rig& rig) {
               return std::make_unique<index::WisckeyKv>(
                   rig.ctrl.get(),
                   index::WisckeyKv::Config{.log_slots = 512,
                                            .gc_region = 64,
                                            .value_bits = kBits});
             },
             21);
       }},
      {"PathHashing",
       [] {
         return RunNative(
             [](bench::Rig& rig) {
               return std::make_unique<index::PathHashingKv>(
                   rig.ctrl.get(),
                   index::PathHashingKv::Config{.root_cells = 1024,
                                                .levels = 4,
                                                .value_bits = kBits});
             },
             21);
       }},
      {"FPTree",
       [] {
         return RunNative(
             [](bench::Rig& rig) {
               return std::make_unique<index::FpTreeKv>(
                   rig.ctrl.get(),
                   index::FpTreeKv::Config{.leaf_capacity = 16,
                                           .value_bits = kBits});
             },
             21);
       }},
      {"NoveLSM",
       [] {
         return RunNative(
             [](bench::Rig& rig) {
               return std::make_unique<index::NoveLsmKv>(
                   rig.ctrl.get(),
                   index::NoveLsmKv::Config{.memtable_entries = 32,
                                            .max_runs = 4,
                                            .value_bits = kBits});
             },
             21);
       }},
  };

  double augmented = RunAugmented(21);
  for (const Entry& e : entries) {
    double native = e.native();
    double reduction = 100.0 * (1.0 - augmented / native);
    std::printf("%14s %14.4f %14.4f %14.1f\n", e.label, native, augmented,
                reduction);
  }
  std::printf("\nexpect: B+Tree worst natively; augmentation cuts bit "
              "updates by a large factor (paper: up to 91%%)\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
