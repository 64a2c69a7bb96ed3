// Quickstart: build an E2-NVM key-value store, load it, and watch the
// bit-flip/energy savings of memory-aware placement.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The store stack (Fig 3 of the paper): a DRAM red-black-tree index, an
// NVM device simulator behind a memory controller (DCW differential
// writes), and the VAE+K-means placement engine with its
// cluster-to-address pool between them.

#include <cstdio>

#include "core/store.h"
#include "workload/datasets.h"

using e2nvm::core::E2KvStore;
using e2nvm::core::StoreConfig;

int main() {
  // 1. Configure: 256 segments of 256 bytes, an 8-cluster model.
  StoreConfig cfg;
  cfg.num_segments = 256;
  cfg.segment_bits = 2048;
  cfg.model.k = 8;
  cfg.model.hidden_dim = 64;
  cfg.model.latent_dim = 10;
  cfg.model.pretrain_epochs = 6;

  auto store = E2KvStore::Create(cfg);
  if (!store.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }

  // 2. Seed the device with "old data" and train the placement model on
  //    it (the paper's initialization phase).
  auto dataset = e2nvm::workload::MakeMixedRealDataset(400, 2048, 42);
  (*store)->Seed(dataset);
  if (e2nvm::Status s = (*store)->Bootstrap(); !s.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("model trained: %zu clusters over %zu segments\n",
              (*store)->engine().clusterer().num_clusters(),
              cfg.num_segments);

  // 3. PUT / GET / UPDATE / DELETE / SCAN. Written values are *updated
  //    versions* of the resident data (a few percent of bits changed), as
  //    in a live store.
  e2nvm::Rng update_rng(7);
  for (uint64_t key = 0; key < 100; ++key) {
    e2nvm::BitVector value = dataset.items[key % dataset.items.size()];
    value.FlipRandomBits(value.size() / 32, update_rng);
    if (e2nvm::Status s = (*store)->Put(key, value); !s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  auto value = (*store)->Get(17);
  std::printf("GET 17 -> %zu bits (ok=%d)\n",
              value.ok() ? value->size() : 0, value.ok());

  (void)(*store)->Put(17, dataset.items[200]);  // UPDATE: re-placed.
  (void)(*store)->Delete(3);                    // DELETE: recycled.
  auto range = (*store)->Scan(10, 5);
  std::printf("SCAN from 10: ");
  for (auto& [k, v] : range) std::printf("%llu ",
                                         (unsigned long long)k);
  std::printf("\n");

  // 4. Inspect the savings.
  const auto& stats = (*store)->device().stats();
  std::printf("\n--- device counters ---\n");
  std::printf("writes:               %llu\n",
              (unsigned long long)stats.writes);
  std::printf("bits flipped / write: %.1f (of %zu bits/segment)\n",
              stats.FlipsPerWrite(), cfg.segment_bits);
  std::printf("dirty cache lines:    %llu\n",
              (unsigned long long)stats.dirty_lines);
  auto& meter = (*store)->meter();
  std::printf("energy: write=%.2f uJ, read=%.2f uJ, model(CPU)=%.2f uJ\n",
              meter.DomainPj(e2nvm::nvm::EnergyDomain::kPmemWrite) * 1e-6,
              meter.DomainPj(e2nvm::nvm::EnergyDomain::kPmemRead) * 1e-6,
              meter.DomainPj(e2nvm::nvm::EnergyDomain::kCpuModel) * 1e-6);
  std::printf("free addresses remaining in the pool: %zu\n",
              (*store)->engine().pool().TotalFree());
  return 0;
}
