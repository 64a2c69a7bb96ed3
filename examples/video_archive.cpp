// Scenario example: a CCTV video archive on NVM — the motivating
// low-power use case from the paper's introduction (IoT / surveillance
// devices on batteries).
//
// Stores a stream of (synthetic) camera frames twice: once with arbitrary
// first-free placement, once through the E2-NVM engine, and compares bit
// flips, energy, and estimated device lifetime. Because consecutive
// frames of the same scene are nearly identical, content-aware placement
// routes each new frame onto a segment holding a similar old frame.

#include <cstdio>

#include "core/e2_model.h"
#include "core/placement_engine.h"
#include "index/value_placer.h"
#include "nvm/controller.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"

namespace {

constexpr size_t kSegments = 256;
constexpr size_t kFrameBits = 2048;  // 256-byte frame tiles.
constexpr size_t kFrames = 600;

struct Archive {
  Archive() {
    e2nvm::nvm::DeviceConfig dc;
    dc.num_segments = kSegments;
    dc.segment_bits = kFrameBits;
    dc.track_bit_wear = true;
    device = std::make_unique<e2nvm::nvm::NvmDevice>(dc);
    ctrl = std::make_unique<e2nvm::nvm::MemoryController>(
        device.get(), &dcw, kSegments, 0);
  }
  e2nvm::schemes::Dcw dcw;
  std::unique_ptr<e2nvm::nvm::NvmDevice> device;
  std::unique_ptr<e2nvm::nvm::MemoryController> ctrl;
};

void Report(const char* label, Archive& a, uint64_t frames) {
  const auto& st = a.device->stats();
  std::printf("%12s: %6.1f flips/frame, %8.2f uJ, max cell wear %llu\n",
              label, st.FlipsPerWrite(),
              a.device->meter().TotalPj() * 1e-6,
              (unsigned long long)a.device->MaxCellWear());
}

}  // namespace

int main() {
  auto video = e2nvm::workload::MakeVideoDataset(
      {.name = "cctv", .dim = kFrameBits, .frames = kSegments + kFrames,
       .frame_noise = 0.005, .scene_len = 80, .scene_change = 0.2,
       .seed = 7});

  // Both archives start with the same "old footage" on the device.
  Archive naive_archive, smart_archive;
  for (size_t i = 0; i < kSegments; ++i) {
    naive_archive.ctrl->Seed(i, video.items[i]);
    smart_archive.ctrl->Seed(i, video.items[i]);
  }

  // Arbitrary placement: frames land wherever a slot is free.
  e2nvm::index::ArbitraryPlacer first_free(naive_archive.ctrl.get(), 0,
                                           kSegments);
  // E2-NVM placement: VAE+K-means routes frames to similar old frames.
  e2nvm::core::E2ModelConfig mc;
  mc.input_dim = kFrameBits;
  mc.k = 8;
  mc.hidden_dim = 64;
  mc.latent_dim = 10;
  mc.pretrain_epochs = 6;
  e2nvm::core::PlacementEngine::Config ec;
  ec.first_segment = 0;
  ec.num_segments = kSegments;
  e2nvm::core::PlacementEngine engine(
      smart_archive.ctrl.get(), std::make_unique<e2nvm::core::E2Model>(mc),
      ec);
  if (e2nvm::Status s = engine.Bootstrap(); !s.ok()) {
    std::fprintf(stderr, "bootstrap: %s\n", s.ToString().c_str());
    return 1;
  }

  // Ring-buffer recording: every new frame overwrites the oldest slot
  // (naive) or whatever slot E2-NVM recommends (smart), with the
  // displaced slot recycled.
  std::printf("recording %zu frames of %zu bits...\n\n", kFrames,
              kFrameBits);
  std::vector<uint64_t> smart_ring;
  for (size_t f = 0; f < kFrames; ++f) {
    const auto& frame = video.items[kSegments + f];
    // Naive: fixed ring buffer position.
    if (first_free.FreeCount() == 0) {
      (void)first_free.Release(f % kSegments);
    }
    (void)first_free.Place(frame);
    // Smart: place, and recycle the oldest recorded frame.
    auto addr = engine.Place(frame);
    if (addr.ok()) smart_ring.push_back(*addr);
    if (smart_ring.size() > 32) {
      (void)engine.Release(smart_ring.front());
      smart_ring.erase(smart_ring.begin());
    }
  }

  Report("first-free", naive_archive, kFrames);
  Report("E2-NVM", smart_archive, kFrames);

  double naive_flips =
      static_cast<double>(naive_archive.device->stats()
                              .total_bits_flipped());
  double smart_flips =
      static_cast<double>(smart_archive.device->stats()
                              .total_bits_flipped());
  std::printf("\nbit flips saved by memory-aware placement: %.1f%%\n",
              100.0 * (1.0 - smart_flips / naive_flips));
  std::printf("(fewer flips = lower energy and proportionally longer "
              "PCM lifetime at 1e8 writes/cell)\n");
  return 0;
}
