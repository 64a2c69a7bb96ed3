// Reproduces Figure 14: average bit flips per 32-bit word after applying
// each padding strategy (zero, one, random, input-based, dataset-based,
// memory-based, learned) at each padding position (begin / middle / end).
//
// Protocol follows §5.3: the model is trained on the full-width training
// split (80%); test items are cropped to two-thirds width and padded back
// to the model width for prediction. Only the cropped data is written.
//
// Reproduced shape: data-aware (IB/DB/MB) beats data-agnostic
// (zero/one/random); learned padding is best; padding in the middle is
// the noisiest position.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/padding.h"

namespace e2nvm {
namespace {

constexpr size_t kBits = 784;  // 28x28 structured frames.
constexpr size_t kCropBits = kBits * 2 / 3;
constexpr size_t kSegments = 160;
constexpr size_t kWrites = 200;
constexpr size_t kClusters = 8;

void RunDataset(const char* name, const workload::BitDataset& full) {
  auto sized = workload::ResizeItems(full, kBits);
  auto [train, test] = sized.Split(0.8);

  // Learned-padding generator, trained once on the training split.
  ml::LstmConfig lc;
  lc.input_size = 8;
  lc.timesteps = 8;
  lc.hidden_size = 10;
  lc.output_size = 8;
  auto lstm = core::TrainPaddingLstm(train, lc, /*epochs=*/3, 4000);
  if (!lstm.ok()) {
    std::fprintf(stderr, "lstm train failed: %s\n",
                 lstm.status().ToString().c_str());
    return;
  }

  std::printf("\ndataset=%s (flips per 32-bit word, cropped test items)\n",
              name);
  std::printf("%8s %8s %8s %8s %8s %8s %8s %8s\n", "loc", "zero", "one",
              "rand", "IB", "DB", "MB", "LB");
  for (auto loc : {core::PadLocation::kBegin, core::PadLocation::kMiddle,
                   core::PadLocation::kEnd}) {
    std::printf("%8s", std::string(core::PadLocationName(loc)).c_str());
    for (auto type :
         {core::PadType::kZero, core::PadType::kOne, core::PadType::kRandom,
          core::PadType::kInputBased, core::PadType::kDatasetBased,
          core::PadType::kMemoryBased, core::PadType::kLearned}) {
      // Fresh rig + model per cell so strategies don't interact.
      schemes::Dcw dcw;
      bench::Rig rig(kSegments, kBits, 0, &dcw);
      rig.SeedFrom(train);
      auto cfg = bench::DefaultModel(kBits, kClusters);
      cfg.pretrain_epochs = 4;
      auto engine =
          bench::MakeEngine(rig, std::make_unique<core::E2Model>(cfg));
      core::Padder padder(type, loc, kBits);
      engine->SetPadder(&padder, lstm->get());

      std::vector<BitVector> stream;
      size_t crop_off = (kBits - kCropBits) / 2;
      for (size_t i = 0; i < kWrites && i < test.items.size(); ++i) {
        // Crop position mirrors the padding position (§5.3: the data is
        // cut at the location where the pad will go back in).
        size_t off = loc == core::PadLocation::kBegin
                         ? kBits - kCropBits
                         : (loc == core::PadLocation::kMiddle ? crop_off
                                                              : 0);
        stream.push_back(test.items[i % test.items.size()].Slice(
            off, kCropBits));
      }
      auto r = bench::RunStream(*engine, *rig.device, stream, 0.95, 7);
      double flips_per_word =
          r.writes ? static_cast<double>(r.flips) /
                         (static_cast<double>(r.bits_written) / 32.0)
                   : 0.0;
      std::printf(" %8.3f", flips_per_word);
    }
    std::printf("\n");
  }
}

void Run() {
  bench::PrintBanner("Figure 14",
                     "bit flips per word across 7 padding strategies x 3 "
                     "positions");
  RunDataset("cctv-like",
             workload::MakeStructuredVideoDataset({.side = 28,
                                                   .frames = 500,
                                                   .scene_len = 60,
                                                   .num_blobs = 8,
                                                   .blob_radius = 0.25,
                                                   .noise = 0.01,
                                                   .seed = 3}));
  RunDataset("mnist-like", workload::MakeMnistLike(500, 5));
  std::printf("\nexpect: LB <= IB/DB/MB <= zero/one/rand on average; "
              "middle padding noisier across strategies\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
