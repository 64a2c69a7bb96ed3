// Scenario example: plugging an existing NVM data structure into E2-NVM
// (the Fig 12 workflow). A B+-Tree with sorted, value-inline leaves is
// run natively, then re-run with its values delegated to the E2-NVM
// placement engine; the example prints the bit-update reduction.

#include <cstdio>

#include "core/e2_model.h"
#include "core/placement_engine.h"
#include "index/bptree.h"
#include "index/placed_index.h"
#include "nvm/controller.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"
#include "workload/ycsb.h"

namespace {
constexpr size_t kBits = 512;
constexpr size_t kKeys = 150;
constexpr size_t kOps = 600;
}  // namespace

/// Zipfian insert/update/delete churn against any index.
static double Churn(e2nvm::index::NvmKvIndex& idx,
                    e2nvm::nvm::NvmDevice& device,
                    const e2nvm::workload::BitDataset& values) {
  e2nvm::Rng rng(5);
  e2nvm::ZipfianGenerator zipf(kKeys, 0.9);
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (!idx.Put(k, values.items[k]).ok()) return -1;
  }
  device.ResetStats();
  uint64_t user_bits = 0;
  for (size_t op = 0; op < kOps; ++op) {
    uint64_t key = zipf.Next(rng);
    if (rng.NextDouble() < 0.1) {
      (void)idx.Delete(key);
    } else {
      size_t vi = (key * 31 + op) % values.items.size();
      if (!idx.Put(key, values.items[vi]).ok()) return -1;
      user_bits += kBits;
    }
  }
  return static_cast<double>(device.stats().total_bits_flipped()) /
         static_cast<double>(user_bits);
}

int main() {
  e2nvm::workload::ProtoConfig pc;
  pc.dim = kBits;
  pc.num_classes = 8;
  pc.samples = 1200;
  pc.noise = 0.04;
  pc.seed = 3;
  auto values = e2nvm::workload::MakeProtoDataset(pc);

  // --- Native B+-Tree: values inline in sorted NVM leaves. ---
  double native_ratio;
  {
    e2nvm::nvm::DeviceConfig dc;
    dc.num_segments = 4096;
    dc.segment_bits = kBits;
    e2nvm::nvm::NvmDevice device(dc);
    e2nvm::schemes::Dcw dcw;
    e2nvm::nvm::MemoryController ctrl(&device, &dcw, 4096, 0);
    e2nvm::index::BpTreeKv bptree(
        &ctrl, {.leaf_capacity = 16, .value_bits = kBits});
    native_ratio = Churn(bptree, device, values);
    std::printf("native B+Tree:   %.4f bit updates per written data bit\n",
                native_ratio);
  }

  // --- The same tree plugged into E2-NVM. ---
  double plugged_ratio;
  {
    e2nvm::nvm::DeviceConfig dc;
    dc.num_segments = 256;
    dc.segment_bits = kBits;
    e2nvm::nvm::NvmDevice device(dc);
    e2nvm::schemes::Dcw dcw;
    e2nvm::nvm::MemoryController ctrl(&device, &dcw, 256, 0);
    for (size_t i = 0; i < 256; ++i) {
      ctrl.Seed(i, values.items[i % values.items.size()]);
    }
    e2nvm::core::E2ModelConfig mc;
    mc.input_dim = kBits;
    mc.k = 8;
    mc.pretrain_epochs = 6;
    e2nvm::core::PlacementEngine::Config ec;
    ec.first_segment = 0;
    ec.num_segments = 256;
    e2nvm::core::PlacementEngine engine(
        &ctrl, std::make_unique<e2nvm::core::E2Model>(mc), ec);
    if (!engine.Bootstrap().ok()) return 1;
    e2nvm::index::PlacedKvIndex plugged("B+Tree+E2-NVM", &engine, kBits);
    plugged_ratio = Churn(plugged, device, values);
    std::printf("B+Tree + E2-NVM: %.4f bit updates per written data bit\n",
                plugged_ratio);
  }

  std::printf("\nreduction from plugging into E2-NVM: %.1f%% "
              "(paper Fig 12 reports up to 91%%)\n",
              100.0 * (1.0 - plugged_ratio / native_ratio));
  return 0;
}
