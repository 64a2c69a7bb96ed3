// Ablation (DESIGN.md §5): the paper jointly optimizes the VAE and the
// K-means objective (§3.2). This bench compares joint fine-tuning against
// purely sequential training (VAE, then K-means on frozen latents) on
// placement quality and training cost.

#include <cstdio>

#include "bench/bench_util.h"

namespace e2nvm {
namespace {

constexpr size_t kSegments = 192;
constexpr size_t kBits = 1024;
constexpr size_t kWrites = 300;
constexpr size_t kClusters = 10;

void Run() {
  bench::PrintBanner("Ablation: joint VAE+K-means fine-tuning",
                     "joint vs sequential training");
  std::printf("%12s %10s %14s %16s\n", "mode", "rounds", "flips/write",
              "train_Gflop");
  auto ds = workload::MakeCifarLike(kSegments + kWrites, 11);
  for (int rounds : {0, 1, 2, 4}) {
    schemes::Dcw dcw;
    bench::Rig rig(kSegments, kBits, 0, &dcw);
    rig.SeedFrom(ds);
    auto cfg = bench::DefaultModel(kBits, kClusters);
    cfg.joint_finetune = rounds > 0;
    cfg.finetune_rounds = rounds;
    auto engine = bench::MakeEngine(rig, std::make_unique<core::E2Model>(cfg));
    auto sized = workload::ResizeItems(ds, kBits);
    std::vector<BitVector> stream(sized.items.begin() + kSegments,
                                  sized.items.end());
    auto r = bench::RunStream(*engine, *rig.device, stream, 0.95, 7);
    std::printf("%12s %10d %14.1f %16.3f\n",
                rounds > 0 ? "joint" : "sequential", rounds,
                r.FlipsPerWrite(),
                engine->clusterer().LastTrainFlops() * 1e-9);
  }
  std::printf("\nexpect: joint fine-tuning adds training cost roughly "
              "linearly in rounds; on data whose cluster structure the "
              "VAE already captures, the flip improvement is small — the "
              "sequential pipeline is near-optimal and joint training is "
              "insurance against harder latent geometry\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
