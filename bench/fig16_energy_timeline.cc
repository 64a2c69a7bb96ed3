// Reproduces Figure 16: cumulative package energy over (simulated) time
// as E2-NVM goes through its lifecycle — (1) initial model training,
// (2) five rounds of overwriting the pool, (3) re-training, (4) four more
// rounds — compared against a wear-leveling-only configuration doing the
// same writes.
//
// Reproduced shape: E2-NVM's curve starts above the baseline (training
// energy) but grows with a much smaller slope during the write phases, so
// the flip savings amortize the model cost well before the end of the
// run. Re-training (3) costs about as much as the initial training (1) —
// the paper's observation that re-training cost is predictable from the
// initialization phase.

#include <cstdio>

#include "bench/bench_util.h"

namespace e2nvm {
namespace {

constexpr size_t kSegments = 160;
constexpr size_t kBits = 2048;  // Scaled stand-in for 64KB ImageNet tiles.
constexpr size_t kClusters = 8;
constexpr int kRoundsBefore = 5;
constexpr int kRoundsAfter = 4;

constexpr int kWritesPerRound = 5;  // Pool overwrites per round.

workload::BitDataset Tiles(size_t n, uint64_t seed) {
  return workload::ResizeItems(workload::MakeCifarLike(n, seed), kBits);
}

void Emit(const char* label, nvm::EnergyMeter& meter, const char* phase) {
  std::printf("%10s %10s %14.3f %16.2f\n", label, phase,
              meter.now_ns() * 1e-6, meter.TotalPj() * 1e-6);
}

void Run() {
  bench::PrintBanner("Figure 16",
                     "cumulative package energy across train / write / "
                     "retrain / write phases vs wear-leveling-only");
  std::printf("%10s %10s %14s %16s\n", "system", "phase", "t_ms",
              "energy_uJ");

  // One ImageNet-like corpus: the paper overwrites the pool with items
  // from the *same data set* round after round, so every round slices the
  // same item stream.
  const int total_rounds = kRoundsBefore + kRoundsAfter;
  auto corpus =
      Tiles(kSegments * (1 + kWritesPerRound * total_rounds), 1);
  auto round_slice = [&](int round) {
    size_t start = kSegments * (1 + kWritesPerRound * round);
    return std::vector<BitVector>(
        corpus.items.begin() + start,
        corpus.items.begin() + start + kSegments * kWritesPerRound);
  };
  workload::BitDataset seed_ds;
  seed_ds.dim = kBits;
  seed_ds.items.assign(corpus.items.begin(),
                       corpus.items.begin() + kSegments);

  // ---- E2-NVM lifecycle ----
  {
    schemes::Dcw dcw;
    bench::Rig rig(kSegments, kBits, 0, &dcw);
    rig.SeedFrom(seed_ds);
    auto cfg = bench::DefaultModel(kBits, kClusters);
    // A compact encoder (32 hidden units) suffices at this segment width
    // and keeps per-write prediction energy well under the flip savings —
    // the regime the paper's GPU-served model operates in.
    cfg.hidden_dim = 32;
    cfg.pretrain_epochs = 5;
    auto& meter = rig.device->meter();
    Emit("E2-NVM", meter, "start");
    // Phase 1: train.
    auto engine = bench::MakeEngine(rig, std::make_unique<core::E2Model>(cfg));
    Emit("E2-NVM", meter, "trained");
    double train_uj = meter.TotalPj() * 1e-6;

    for (int round = 0; round < kRoundsBefore; ++round) {  // Phase 2.
      auto r = bench::RunStream(*engine, *rig.device, round_slice(round),
                                1.0, round);
      (void)r;
      char label[32];
      std::snprintf(label, sizeof(label), "write-%d", round + 1);
      Emit("E2-NVM", meter, label);
    }
    double before_retrain = meter.TotalPj() * 1e-6;
    Status s = engine->Retrain();  // Phase 3.
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
    Emit("E2-NVM", meter, "retrained");
    double retrain_uj = meter.TotalPj() * 1e-6 - before_retrain;
    for (int round = 0; round < kRoundsAfter; ++round) {  // Phase 4.
      bench::RunStream(*engine, *rig.device,
                       round_slice(kRoundsBefore + round), 1.0,
                       50 + round);
      char label[32];
      std::snprintf(label, sizeof(label), "write-%d",
                    kRoundsBefore + round + 1);
      Emit("E2-NVM", meter, label);
    }
    std::printf("train cost %.2f uJ vs retrain cost %.2f uJ "
                "(paper: retrain ~= initial train)\n",
                train_uj, retrain_uj);
  }

  // ---- Wear-leveling-only baseline: same writes, arbitrary placement,
  // ---- Start-Gap rotation underneath ----
  {
    schemes::Dcw dcw;
    bench::Rig rig(kSegments, kBits, /*psi=*/16, &dcw);
    rig.SeedFrom(seed_ds);
    index::ArbitraryPlacer placer(rig.ctrl.get(), 0, kSegments);
    auto& meter = rig.device->meter();
    Emit("WL-only", meter, "start");
    for (int round = 0; round < total_rounds; ++round) {
      bench::RunStream(placer, *rig.device, round_slice(round), 1.0,
                       round);
      char label[32];
      std::snprintf(label, sizeof(label), "write-%d", round + 1);
      Emit("WL-only", meter, label);
    }
  }
  std::printf("\nexpect: E2-NVM pays training energy up front, then its "
              "per-round energy increments are far smaller than "
              "WL-only's; total crosses below WL-only within a few "
              "rounds\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
