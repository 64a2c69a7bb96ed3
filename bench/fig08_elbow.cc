// Reproduces Figure 8: the Sum-of-Squared-Error elbow curve versus the
// total energy consumed by E2-NVM for different cluster counts K on a
// CIFAR-10-like dataset.
//
// Reproduced shape: SSE falls monotonically with a knee (the paper reads
// K=6 off its curve); total energy shows the "valley" — high at K=1 (poor
// placement) and creeping back up at large K (model/training energy grows
// while flip savings saturate).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/elbow.h"
#include "placement/clusterer.h"

namespace e2nvm {
namespace {

constexpr size_t kSegments = 160;
constexpr size_t kBits = 1024;
constexpr size_t kWrites = 250;

void Run() {
  bench::PrintBanner("Figure 8",
                     "SSE elbow vs total energy across K (CIFAR-like)");
  auto ds = workload::MakeCifarLike(kSegments + kWrites, 11);

  // SSE curve on the latent space of a trained VAE (Eq. 1).
  auto model_cfg = bench::DefaultModel(kBits, 6);
  core::E2Model probe(model_cfg);
  {
    auto train = workload::ResizeItems(ds, kBits);
    ml::Matrix m(kSegments, kBits);
    for (size_t i = 0; i < kSegments; ++i) {
      for (size_t d = 0; d < kBits; ++d) {
        m(i, d) = train.items[i].Get(d) ? 1.0f : 0.0f;
      }
    }
    Status s = probe.Train(m);
    if (!s.ok()) {
      std::fprintf(stderr, "train failed: %s\n", s.ToString().c_str());
      return;
    }
    ml::Matrix z = probe.vae().EncodeMu(m);
    core::ElbowResult elbow = core::SweepK(z, 1, 14);
    std::printf("%4s %14s\n", "K", "SSE");
    for (size_t i = 0; i < elbow.ks.size(); ++i) {
      std::printf("%4zu %14.2f\n", elbow.ks[i], elbow.sse[i]);
    }
    std::printf("elbow (knee) at K = %zu (paper reads K=6 on CIFAR-10)\n\n",
                elbow.best_k);
  }

  // Energy valley: full pipeline per K (training + placement energy).
  std::printf("%4s %16s %14s\n", "K", "total_energy_uJ", "flips/write");
  for (size_t k : {1u, 2u, 4u, 6u, 8u, 12u, 16u, 24u}) {
    schemes::Dcw dcw;
    bench::Rig rig(kSegments, kBits, 0, &dcw);
    rig.SeedFrom(ds);
    auto cfg = bench::DefaultModel(kBits, k);
    auto engine = bench::MakeEngine(rig, std::make_unique<core::E2Model>(cfg));
    auto sized = workload::ResizeItems(ds, kBits);
    std::vector<BitVector> stream(sized.items.begin() + kSegments,
                                  sized.items.end());
    auto r = bench::RunStream(*engine, *rig.device, stream, 0.95, 5);
    std::printf("%4zu %16.2f %14.1f\n", k,
                rig.device->meter().TotalPj() * 1e-6,
                r.FlipsPerWrite());
  }
  std::printf("\nexpect: energy valley — worst at K=1, best near the SSE "
              "elbow, creeping up again at large K\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
