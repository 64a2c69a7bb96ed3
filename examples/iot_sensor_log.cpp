// Scenario example: an IoT sensor log on battery-powered NVM — the other
// deployment the paper's introduction motivates (energy-harvesting /
// battery devices with low-power PCM).
//
// Sensors emit tiny readings (a 96-bit GPS/altitude record). Writing each
// reading to its own 256-byte segment wastes both energy (a whole-segment
// write request per reading) and DAP space; the paper's §4.1.4 batching
// groups readings into segment-sized writes placed by E2-NVM. This
// example runs both modes and prints the energy per reading.

#include <cstdio>

#include "core/batch.h"
#include "core/e2_model.h"
#include "core/placement_engine.h"
#include "nvm/controller.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"

namespace {
constexpr size_t kSegBits = 2048;  // 256-byte segments.
constexpr size_t kSegments = 128;
constexpr size_t kReadings = 4000;
}  // namespace

int main() {
  // Sensor readings: 96-bit road-network-style records (quantized
  // lat/lon/alt along a vehicle's route).
  auto readings =
      e2nvm::workload::MakeRoadNetworkDataset(kReadings, 96, 11);
  auto seed_content = e2nvm::workload::ResizeItems(
      e2nvm::workload::MakeRoadNetworkDataset(kSegments, 96, 3),
      kSegBits);

  double per_reading_uj[2] = {0, 0};
  uint64_t nvm_writes[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {  // 0 = direct, 1 = batched.
    e2nvm::nvm::DeviceConfig dc;
    dc.num_segments = kSegments;
    dc.segment_bits = kSegBits;
    e2nvm::nvm::NvmDevice device(dc);
    e2nvm::schemes::Dcw dcw;
    e2nvm::nvm::MemoryController ctrl(&device, &dcw, kSegments, 0);
    for (size_t i = 0; i < kSegments; ++i) {
      ctrl.Seed(i, seed_content.items[i]);
    }
    e2nvm::core::E2ModelConfig mc;
    mc.input_dim = kSegBits;
    mc.k = 6;
    mc.pretrain_epochs = 5;
    e2nvm::core::PlacementEngine::Config ec;
    ec.first_segment = 0;
    ec.num_segments = kSegments;
    e2nvm::core::PlacementEngine engine(
        &ctrl, std::make_unique<e2nvm::core::E2Model>(mc), ec);
    if (!engine.Bootstrap().ok()) return 1;

    double pj_before = device.meter().TotalPj();
    if (mode == 1) {
      e2nvm::core::BatchWriter batcher(&engine, kSegBits);
      for (uint64_t k = 0; k < kReadings; ++k) {
        if (!batcher.Put(k, readings.items[k]).ok()) break;
        // Retention policy: keep the latest ~2000 readings.
        if (k >= 2000) (void)batcher.Delete(k - 2000);
      }
      (void)batcher.Flush();
    } else {
      std::vector<uint64_t> ring;
      for (uint64_t k = 0; k < kReadings; ++k) {
        auto addr = engine.Place(readings.items[k]);
        if (!addr.ok()) break;
        ring.push_back(*addr);
        // One whole segment per reading: retention must be much shorter.
        if (ring.size() > kSegments - 8) {
          (void)engine.Release(ring.front());
          ring.erase(ring.begin());
        }
      }
    }
    per_reading_uj[mode] =
        (device.meter().TotalPj() - pj_before) * 1e-6 / kReadings;
    nvm_writes[mode] = device.stats().writes;
  }

  std::printf("IoT sensor log: %u readings of 96 bits, %zu-byte "
              "segments\n\n",
              kReadings, kSegBits / 8);
  std::printf("%10s %14s %18s %22s\n", "mode", "nvm_writes",
              "uJ_per_reading", "readings_retained");
  std::printf("%10s %14llu %18.4f %22d\n", "direct",
              (unsigned long long)nvm_writes[0], per_reading_uj[0],
              static_cast<int>(kSegments - 8));
  std::printf("%10s %14llu %18.4f %22d\n", "batched",
              (unsigned long long)nvm_writes[1], per_reading_uj[1], 2000);
  std::printf("\nbatching cuts NVM writes ~%.0fx and energy per reading "
              "~%.1fx, while retaining %.0fx more history in the same "
              "pool\n",
              static_cast<double>(nvm_writes[0]) /
                  static_cast<double>(nvm_writes[1]),
              per_reading_uj[0] / per_reading_uj[1],
              2000.0 / static_cast<double>(kSegments - 8));
  return 0;
}
