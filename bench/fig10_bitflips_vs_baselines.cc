// Reproduces Figure 10: bits updated per PMem cache-line access for
// E2-NVM against the RBW baselines (DCW, MinShift, FNW, Captopril) and
// the memory-aware baseline PNW, across datasets and cluster counts
// k = 1..30; plus the per-item prediction latency of PNW vs E2-NVM.
//
// Reproduced shape: at k=1, E2-NVM == PNW == DCW (no clustering); with
// growing k both clustered methods improve and E2-NVM leads (paper: up to
// 3.2x over PNW, 4.23x over the RBW baselines). E2-NVM's prediction
// latency exceeds PNW's (two models run per prediction) — the
// performance/accuracy trade-off the paper discusses.

#include <cstdio>

#include "bench/bench_util.h"
#include "placement/clusterer.h"

namespace e2nvm {
namespace {

constexpr size_t kSegments = 160;
constexpr size_t kBits = 784;  // MNIST-like item width.
constexpr size_t kWrites = 300;

workload::BitDataset Data(const char* which, size_t n) {
  workload::BitDataset ds;
  if (std::string(which) == "mnist-like") {
    ds = workload::MakeMnistLike(n, 3);
  } else if (std::string(which) == "pubmed-like") {
    ds = workload::MakePubMedLike(n, kBits, 10, 5);
  } else {
    ds = workload::MakeCifarLike(n, 9);
  }
  return workload::ResizeItems(ds, kBits);
}

struct Row {
  double flips_per_line;
  double predict_ms_per_item;
};

Row RunScheme(const char* dataset, const std::string& scheme_name) {
  auto scheme = schemes::MakeScheme(scheme_name);
  bench::Rig rig(kSegments, kBits, 0, scheme.get());
  rig.SeedFrom(Data(dataset, kSegments));
  index::ArbitraryPlacer placer(rig.ctrl.get(), 0, kSegments);
  auto stream = Data(dataset, kSegments + kWrites);
  std::vector<BitVector> items(stream.items.begin() + kSegments,
                               stream.items.end());
  auto r = bench::RunStream(placer, *rig.device, items, 0.95, 3);
  return {r.FlipsPerLine(), 0.0};
}

Row RunAware(const char* dataset, bool e2, size_t k) {
  schemes::Dcw dcw;
  bench::Rig rig(kSegments, kBits, 0, &dcw);
  rig.SeedFrom(Data(dataset, kSegments));
  std::unique_ptr<placement::ContentClusterer> clusterer;
  if (k <= 1) {
    clusterer = std::make_unique<placement::SingleClusterer>();
  } else if (e2) {
    auto cfg = bench::DefaultModel(kBits, k);
    // Sparse text vectors need a few more epochs and a gentler KL weight
    // for the Bernoulli decoder to move off the all-zeros solution.
    if (std::string(dataset) == "pubmed-like") {
      cfg.pretrain_epochs = 14;
      cfg.beta = 0.01f;
      cfg.hidden_dim = 128;
    }
    clusterer = std::make_unique<core::E2Model>(cfg);
  } else {
    clusterer = std::make_unique<placement::RawKMeansClusterer>(k, 42, 25);
  }
  auto engine = bench::MakeEngine(rig, std::move(clusterer));
  auto stream = Data(dataset, kSegments + kWrites);
  std::vector<BitVector> items(stream.items.begin() + kSegments,
                               stream.items.end());
  auto r = bench::RunStream(*engine, *rig.device, items, 0.95, 3);
  return {r.FlipsPerLine(), r.wall_ms / static_cast<double>(r.writes)};
}

void Run() {
  bench::PrintBanner("Figure 10",
                     "bits updated per cache-line access: E2-NVM vs RBW "
                     "baselines and PNW, k = 1..30");
  for (const char* dataset : {"mnist-like", "pubmed-like"}) {
    std::printf("\ndataset=%s (flips per dirty cache line)\n", dataset);
    std::printf("%12s %10s\n", "method", "flips/line");
    for (const char* s : {"DCW", "MinShift", "FNW", "Captopril"}) {
      Row r = RunScheme(dataset, s);
      std::printf("%12s %10.2f\n", s, r.flips_per_line);
    }
    std::printf("%6s %12s %12s %16s %16s\n", "k", "PNW", "E2-NVM",
                "PNW_ms/item", "E2_ms/item");
    for (size_t k : {1u, 5u, 10u, 20u, 30u}) {
      Row pnw = RunAware(dataset, false, k);
      Row e2 = RunAware(dataset, true, k);
      std::printf("%6zu %12.2f %12.2f %16.4f %16.4f\n", k,
                  pnw.flips_per_line, e2.flips_per_line,
                  pnw.predict_ms_per_item, e2.predict_ms_per_item);
    }
  }
  std::printf(
      "\nexpect: k=1 rows match DCW; E2-NVM at or below PNW once k >= 5; "
      "E2 prediction latency above PNW's at small k (two models run per "
      "prediction) — at large k raw K-means' O(k*d) distance scan "
      "overtakes the encoder's fixed cost\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}
