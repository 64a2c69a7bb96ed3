// Ablation (DESIGN.md §5): the paper compresses segments to a ~10-d
// latent space (§3.2). This bench sweeps the latent dimensionality and
// reports placement quality vs prediction cost.

#include <cstdio>

#include "bench/bench_util.h"

namespace e2nvm {
namespace {

constexpr size_t kSegments = 160;
constexpr size_t kBits = 1024;
constexpr size_t kWrites = 250;
constexpr size_t kClusters = 10;

void Run() {
  bench::PrintBanner("Ablation: latent dimensionality",
                     "flips and prediction cost vs latent size");
  std::printf("%8s %14s %18s\n", "latent", "flips/write",
              "predict_kflop");
  auto ds = workload::MakeCifarLike(kSegments + kWrites, 13);
  for (size_t latent : {2u, 4u, 10u, 24u, 48u}) {
    schemes::Dcw dcw;
    bench::Rig rig(kSegments, kBits, 0, &dcw);
    rig.SeedFrom(ds);
    auto cfg = bench::DefaultModel(kBits, kClusters);
    cfg.latent_dim = latent;
    auto engine = bench::MakeEngine(rig, std::make_unique<core::E2Model>(cfg));
    auto sized = workload::ResizeItems(ds, kBits);
    std::vector<BitVector> stream(sized.items.begin() + kSegments,
                                  sized.items.end());
    auto r = bench::RunStream(*engine, *rig.device, stream, 0.95, 7);
    std::printf("%8zu %14.1f %18.2f\n", latent, r.FlipsPerWrite(),
                engine->clusterer().PredictFlops() * 1e-3);
  }
  std::printf("\nexpect: too-small latents underfit (more flips); beyond "
              "~10 dims quality saturates while prediction cost grows\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
