// Reproduces Figure 2: average number of bit updates per write as the
// wear-leveling swap period psi varies, for E2-NVM vs prior bit-flip
// reduction techniques (DCW, FNW, MinShift, Captopril, PNW) on the
// Amazon-access-samples-like dataset.
//
// Reproduced shape: at psi=1 a Start-Gap segment copy accompanies every
// write, so every method pays the (large) migration flips and none shows
// an advantage; as psi grows to "normal levels" (10s of writes), the swap
// cost amortizes away and the memory-aware methods — E2-NVM most of all —
// pull far ahead of the RBW hardware baselines.

#include <cstdio>

#include "bench/bench_util.h"
#include "placement/clusterer.h"

namespace e2nvm {
namespace {

constexpr size_t kSegments = 192;
constexpr size_t kBits = 512;
constexpr size_t kWrites = 600;
constexpr size_t kClusters = 8;

workload::BitDataset Data(size_t n, uint64_t seed) {
  return workload::ResizeItems(
      workload::MakeAccessLogDataset(n, 256, seed), kBits);
}

double RunScheme(const std::string& scheme_name, uint64_t psi) {
  auto scheme = schemes::MakeScheme(scheme_name);
  bench::Rig rig(kSegments, kBits, psi, scheme.get());
  auto seed_data = Data(kSegments, 7);
  rig.SeedFrom(seed_data);
  index::ArbitraryPlacer placer(rig.ctrl.get(), 0, kSegments);
  auto stream = Data(kWrites, 11);
  auto r = bench::RunStream(placer, *rig.device, stream.items,
                            /*delete_fraction=*/0.9, 3);
  return r.FlipsPerWrite();
}

double RunAware(bool e2, uint64_t psi) {
  schemes::Dcw dcw;
  bench::Rig rig(kSegments, kBits, psi, &dcw);
  auto seed_data = Data(kSegments, 7);
  rig.SeedFrom(seed_data);
  std::unique_ptr<placement::ContentClusterer> clusterer;
  if (e2) {
    clusterer = std::make_unique<core::E2Model>(
        bench::DefaultModel(kBits, kClusters));
  } else {
    clusterer =
        std::make_unique<placement::RawKMeansClusterer>(kClusters, 42);
  }
  auto engine = bench::MakeEngine(rig, std::move(clusterer));
  auto stream = Data(kWrites, 11);
  auto r = bench::RunStream(*engine, *rig.device, stream.items, 0.9, 3);
  return r.FlipsPerWrite();
}

void Run() {
  bench::PrintBanner("Figure 2",
                     "avg bit updates per write vs wear-leveling period "
                     "psi (Amazon-access-like)");
  std::printf("%6s %10s %10s %10s %10s %12s %10s\n", "psi", "DCW", "FNW",
              "MinShift", "Captopril", "PNW", "E2-NVM");
  for (uint64_t psi : {1ull, 2ull, 5ull, 10ull, 20ull, 50ull}) {
    double dcw = RunScheme("DCW", psi);
    double fnw = RunScheme("FNW", psi);
    double ms = RunScheme("MinShift", psi);
    double cap = RunScheme("Captopril", psi);
    double pnw = RunAware(/*e2=*/false, psi);
    double e2 = RunAware(/*e2=*/true, psi);
    std::printf("%6llu %10.1f %10.1f %10.1f %10.1f %12.1f %10.1f\n",
                static_cast<unsigned long long>(psi), dcw, fnw, ms, cap,
                pnw, e2);
  }
  std::printf("\nexpect: all methods converge at psi=1 (swap-dominated); "
              "E2-NVM lowest for psi >= ~10\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
