// Configurable experiment driver — run custom E2-NVM simulations from
// the command line without writing code:
//
//   ./build/examples/sim_driver --segments 256 --segment-bytes 256 \
//       --clusters 8 --dataset mnist --writes 500 --scheme DCW --psi 0 \
//       --placement e2
//
// Placements: e2 (VAE+K-means), pnw (raw K-means), pca (PCA+K-means),
//             datacon (polarity buckets), arbitrary (first-free).
// Datasets:   mnist, fashion, cifar, video, access, road, pubmed, mixed.
// Schemes:    Naive, DCW, FNW, MinShift, Captopril, FMR.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/e2_model.h"
#include "core/placement_engine.h"
#include "index/value_placer.h"
#include "nvm/controller.h"
#include "placement/clusterer.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"

namespace {

struct Options {
  size_t segments = 256;
  size_t segment_bytes = 256;
  size_t clusters = 8;
  std::string dataset = "mnist";
  std::string scheme = "DCW";
  std::string placement = "e2";
  size_t writes = 500;
  uint64_t psi = 0;
  uint64_t seed = 42;
  double delete_fraction = 0.95;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--segments N] [--segment-bytes N] [--clusters K]\n"
      "          [--dataset mnist|fashion|cifar|video|access|road|pubmed|"
      "mixed]\n"
      "          [--scheme Naive|DCW|FNW|MinShift|Captopril|FMR]\n"
      "          [--placement e2|pnw|pca|datacon|arbitrary]\n"
      "          [--writes N] [--psi N] [--seed N] [--deletes F]\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--segments" && (v = next())) {
      opt->segments = std::strtoull(v, nullptr, 10);
    } else if (flag == "--segment-bytes" && (v = next())) {
      opt->segment_bytes = std::strtoull(v, nullptr, 10);
    } else if (flag == "--clusters" && (v = next())) {
      opt->clusters = std::strtoull(v, nullptr, 10);
    } else if (flag == "--dataset" && (v = next())) {
      opt->dataset = v;
    } else if (flag == "--scheme" && (v = next())) {
      opt->scheme = v;
    } else if (flag == "--placement" && (v = next())) {
      opt->placement = v;
    } else if (flag == "--writes" && (v = next())) {
      opt->writes = std::strtoull(v, nullptr, 10);
    } else if (flag == "--psi" && (v = next())) {
      opt->psi = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seed" && (v = next())) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--deletes" && (v = next())) {
      opt->delete_fraction = std::strtod(v, nullptr);
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

e2nvm::workload::BitDataset MakeData(const Options& opt, size_t n,
                                     size_t dim) {
  using namespace e2nvm::workload;
  BitDataset ds;
  if (opt.dataset == "mnist") {
    ds = MakeMnistLike(n, opt.seed);
  } else if (opt.dataset == "fashion") {
    ds = MakeFashionLike(n, opt.seed);
  } else if (opt.dataset == "cifar") {
    ds = MakeCifarLike(n, opt.seed);
  } else if (opt.dataset == "video") {
    ds = MakeStructuredVideoDataset({.side = 28, .frames = n,
                                     .seed = opt.seed});
  } else if (opt.dataset == "access") {
    ds = MakeAccessLogDataset(n, 256, opt.seed);
  } else if (opt.dataset == "road") {
    ds = MakeRoadNetworkDataset(n, 192, opt.seed);
  } else if (opt.dataset == "pubmed") {
    ds = MakePubMedLike(n, dim, 8, opt.seed);
  } else {
    ds = MakeMixedRealDataset(n, dim, opt.seed);
  }
  return ResizeItems(ds, dim);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;
  const size_t dim = opt.segment_bytes * 8;

  auto scheme = e2nvm::schemes::MakeScheme(opt.scheme);
  if (scheme == nullptr) {
    std::fprintf(stderr, "unknown scheme '%s'\n", opt.scheme.c_str());
    return 2;
  }

  e2nvm::nvm::DeviceConfig dc;
  dc.num_segments = opt.segments + (opt.psi > 0 ? 1 : 0);
  dc.segment_bits = dim;
  dc.track_bit_wear = true;
  e2nvm::nvm::NvmDevice device(dc);
  e2nvm::nvm::MemoryController ctrl(&device, scheme.get(), opt.segments,
                                    opt.psi);

  auto seed_data = MakeData(opt, opt.segments, dim);
  for (size_t i = 0; i < opt.segments; ++i) {
    ctrl.Seed(i, seed_data.items[i % seed_data.items.size()]);
  }

  // Placement policy.
  std::unique_ptr<e2nvm::placement::ContentClusterer> clusterer;
  if (opt.placement == "e2") {
    e2nvm::core::E2ModelConfig mc;
    mc.input_dim = dim;
    mc.k = opt.clusters;
    mc.seed = opt.seed;
    clusterer = std::make_unique<e2nvm::core::E2Model>(mc);
  } else if (opt.placement == "pnw") {
    clusterer = std::make_unique<e2nvm::placement::RawKMeansClusterer>(
        opt.clusters, opt.seed);
  } else if (opt.placement == "pca") {
    clusterer = std::make_unique<e2nvm::placement::PcaKMeansClusterer>(
        opt.clusters, 10, opt.seed);
  } else if (opt.placement == "datacon") {
    clusterer = std::make_unique<e2nvm::placement::DensityClusterer>(
        opt.clusters);
  } else if (opt.placement != "arbitrary") {
    std::fprintf(stderr, "unknown placement '%s'\n",
                 opt.placement.c_str());
    return 2;
  }

  std::unique_ptr<e2nvm::index::ValuePlacer> placer;
  std::unique_ptr<e2nvm::core::PlacementEngine> engine;
  if (opt.placement == "arbitrary") {
    placer = std::make_unique<e2nvm::index::ArbitraryPlacer>(
        &ctrl, 0, opt.segments);
  } else {
    e2nvm::core::PlacementEngine::Config ec;
    ec.first_segment = 0;
    ec.num_segments = opt.segments;
    engine = std::make_unique<e2nvm::core::PlacementEngine>(
        &ctrl, std::move(clusterer), ec);
    if (e2nvm::Status s = engine->Bootstrap(); !s.ok()) {
      std::fprintf(stderr, "bootstrap failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  e2nvm::index::ValuePlacer& sink =
      engine ? static_cast<e2nvm::index::ValuePlacer&>(*engine) : *placer;

  // Write stream with recycling.
  auto stream = MakeData(opt, opt.writes, dim);
  e2nvm::Rng rng(opt.seed ^ 0xD1CEull);
  std::vector<uint64_t> live;
  device.ResetStats();
  for (const auto& item : stream.items) {
    auto addr = sink.Place(item);
    if (!addr.ok()) {
      std::fprintf(stderr, "placement stopped: %s\n",
                   addr.status().ToString().c_str());
      break;
    }
    live.push_back(*addr);
    if (!live.empty() && rng.NextDouble() < opt.delete_fraction) {
      size_t idx = rng.NextBounded(live.size());
      (void)sink.Release(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }

  const auto& st = device.stats();
  std::printf("--- sim_driver results ---\n");
  std::printf("dataset=%s scheme=%s placement=%s segments=%zu x %zuB "
              "k=%zu psi=%llu\n",
              opt.dataset.c_str(), opt.scheme.c_str(),
              opt.placement.c_str(), opt.segments, opt.segment_bytes,
              opt.clusters, (unsigned long long)opt.psi);
  std::printf("device writes:        %llu\n",
              (unsigned long long)st.writes);
  std::printf("flips per write:      %.1f\n", st.FlipsPerWrite());
  std::printf("bits flipped:         %llu\n",
              (unsigned long long)st.total_bits_flipped());
  std::printf("flips per data bit:   %.4f\n", st.FlipsPerDataBit());
  std::printf("dirty lines:          %llu\n",
              (unsigned long long)st.dirty_lines);
  std::printf("energy (uJ):          %.2f (write %.2f, model %.2f)\n",
              device.meter().TotalPj() * 1e-6,
              device.meter().DomainPj(
                  e2nvm::nvm::EnergyDomain::kPmemWrite) * 1e-6,
              device.meter().DomainPj(
                  e2nvm::nvm::EnergyDomain::kCpuModel) * 1e-6);
  std::printf("simulated time (ms):  %.3f\n",
              device.meter().now_ns() * 1e-6);
  std::printf("max cell wear:        %llu (lifetime consumed %.2e)\n",
              (unsigned long long)device.MaxCellWear(),
              device.LifetimeConsumed());
  return 0;
}
