// Reproduces Figure 15: bit flips when different percentages of the
// frame are padded by the learned padding scheme. The paper uses CCTV
// frames; here the image-like generator stands in because it has the
// property the experiment needs — part of the class identity lives in
// the cropped-away region, so padding quality genuinely decides the
// cluster.
//
// Protocol: the model is trained on intact frames; test frames are cut to
// (100 - x)% and the learned padding regenerates the missing part for the
// cluster prediction. Only the kept bits are written. To isolate the
// padding-induced prediction loss from the (shorter) written content, an
// *oracle* control predicts the cluster from the intact frame while
// writing the identical crop; the figure's quantity is the degradation of
// the padded prediction relative to that oracle.
//
// Reproduced shape: no degradation at 0%, minimal at ~10%, growing as the
// padded fraction approaches half the frame.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/address_pool.h"
#include "core/padding.h"

namespace e2nvm {
namespace {

constexpr size_t kBits = 784;  // 28x28 structured frames.
constexpr size_t kSegments = 160;
constexpr size_t kWrites = 200;
constexpr size_t kClusters = 10;

struct Result {
  double padded_fpw;  // Flips per 32-bit word, padded prediction.
  double oracle_fpw;  // Same writes, intact-frame prediction.
};

Result RunPct(int pct, const workload::BitDataset& train,
              const workload::BitDataset& test, ml::Lstm* lstm) {
  size_t keep = kBits - kBits * static_cast<size_t>(pct) / 100;
  Result out{};
  for (int oracle = 0; oracle < 2; ++oracle) {
    schemes::Dcw dcw;
    bench::Rig rig(kSegments, kBits, 0, &dcw);
    rig.SeedFrom(train);
    auto cfg = bench::DefaultModel(kBits, kClusters);
    cfg.pretrain_epochs = 4;
    auto engine = bench::MakeEngine(rig, std::make_unique<core::E2Model>(cfg));
    core::Padder padder(core::PadType::kLearned, core::PadLocation::kEnd,
                        kBits);
    core::PaddingContext ctx;
    ctx.lstm = lstm;

    Rng rng(7);
    ml::InferenceScratch scratch;  // One staged row, reused per write.
    scratch.in.EnsureShape(1, kBits);
    std::vector<uint64_t> live;
    uint64_t flips_before = rig.device->stats().total_bits_flipped();
    uint64_t written_bits = 0;
    for (size_t i = 0; i < kWrites; ++i) {
      const BitVector& frame = test.items[i % test.items.size()];
      BitVector crop = frame.Slice(0, keep);
      // Cluster choice: padded crop vs intact-frame oracle.
      if (oracle) {
        frame.AppendFloatsTo(scratch.in.Row(0));
      } else {
        auto padded = padder.Pad(crop, ctx);
        if (!padded.ok()) continue;
        padded->AppendFloatsTo(scratch.in.Row(0));
      }
      engine->clusterer().AssignScratch(&scratch);
      const size_t cluster = scratch.clusters[0];
      // Hand the write to the DAP exactly as PlacementEngine would.
      auto got = engine->mutable_pool().Acquire(
          cluster, 1, [](uint64_t) { return size_t{0}; });
      if (!got) break;
      index::MergeWrite(*rig.ctrl, got->addr, crop);
      written_bits += crop.size();
      live.push_back(got->addr);
      if (rng.NextDouble() < 0.95 && !live.empty()) {
        size_t idx = rng.NextBounded(live.size());
        (void)engine->Release(live[idx]);
        live[idx] = live.back();
        live.pop_back();
      }
    }
    double fpw = static_cast<double>(rig.device->stats()
                                         .total_bits_flipped() -
                                     flips_before) /
                 (static_cast<double>(written_bits) / 32.0);
    if (oracle) {
      out.oracle_fpw = fpw;
    } else {
      out.padded_fpw = fpw;
    }
  }
  return out;
}

void Run() {
  bench::PrintBanner("Figure 15",
                     "bit flips per word vs %% of frame padded "
                     "(learned padding vs intact-frame oracle)");
  // Frame family where the cropped-away region carries class identity
  // for part of the classes (blob positions), so padding accuracy
  // genuinely matters: the image-like generator at 28x28.
  auto full = workload::MakeMnistLike(500, 9);
  auto [train, test] = full.Split(0.8);

  ml::LstmConfig lc;
  lc.input_size = 8;
  lc.timesteps = 8;
  lc.hidden_size = 10;
  lc.output_size = 8;
  auto lstm = core::TrainPaddingLstm(train, lc, 3, 4000);
  if (!lstm.ok()) {
    std::fprintf(stderr, "lstm train failed\n");
    return;
  }

  std::printf("%10s %14s %14s %16s\n", "padded_%", "padded_fpw",
              "oracle_fpw", "degradation_%");
  for (int pct : {0, 10, 20, 30, 40, 50}) {
    Result r = RunPct(pct, train, test, lstm->get());
    double deg = 100.0 * (r.padded_fpw / r.oracle_fpw - 1.0);
    std::printf("%10d %14.3f %14.3f %16.1f\n", pct, r.padded_fpw,
                r.oracle_fpw, deg);
  }
  std::printf("\nexpect: degradation ~0%% with no padding, small at 10%%, "
              "growing toward 50%% padded\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
