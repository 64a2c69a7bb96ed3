#include "core/placement_engine.h"

#include <gtest/gtest.h>

#include "core/e2_model.h"
#include "index/value_placer.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"

namespace e2nvm::core {
namespace {

constexpr size_t kSegments = 128;
constexpr size_t kBits = 256;

struct Rig {
  explicit Rig(std::unique_ptr<placement::ContentClusterer> clusterer,
               PlacementEngine::Config ec = {}) {
    nvm::DeviceConfig dc;
    dc.num_segments = kSegments;
    dc.segment_bits = kBits;
    device = std::make_unique<nvm::NvmDevice>(dc);
    ctrl = std::make_unique<nvm::MemoryController>(device.get(), &dcw,
                                                   kSegments, 0);
    ec.first_segment = 0;
    ec.num_segments = kSegments;
    engine = std::make_unique<PlacementEngine>(ctrl.get(),
                                               std::move(clusterer), ec);
  }

  void SeedWith(const workload::BitDataset& ds) {
    auto sized = workload::ResizeItems(ds, kBits);
    for (size_t i = 0; i < kSegments; ++i) {
      ctrl->Seed(i, sized.items[i % sized.items.size()]);
    }
  }

  schemes::Dcw dcw;
  std::unique_ptr<nvm::NvmDevice> device;
  std::unique_ptr<nvm::MemoryController> ctrl;
  std::unique_ptr<PlacementEngine> engine;
};

std::unique_ptr<placement::ContentClusterer> KMeans(size_t k) {
  return std::make_unique<placement::RawKMeansClusterer>(k);
}

workload::BitDataset ClusteredData(size_t samples, uint64_t seed = 2) {
  workload::ProtoConfig cfg;
  cfg.dim = kBits;
  cfg.num_classes = 4;
  cfg.samples = samples;
  cfg.noise = 0.03;
  cfg.seed = seed;
  return workload::MakeProtoDataset(cfg);
}

TEST(PlacementEngineTest, PlaceBeforeBootstrapFails) {
  Rig rig(KMeans(4));
  EXPECT_EQ(rig.engine->Place(BitVector(kBits)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PlacementEngineTest, PredictBeforeBootstrapIsRefused) {
  // No model has trained yet: an E2Model holds no VAE to encode with,
  // and an unfitted k-means would answer cluster 0 for everything. The
  // refusal charges no prediction.
  core::E2ModelConfig mc;
  mc.input_dim = kBits;
  mc.k = 4;
  for (bool e2 : {true, false}) {
    Rig rig(e2 ? std::unique_ptr<placement::ContentClusterer>(
                     std::make_unique<E2Model>(mc))
               : KMeans(4));
    rig.SeedWith(ClusteredData(64));
    EXPECT_EQ(rig.engine->PredictClusterFor(BitVector(kBits)).status().code(),
              StatusCode::kFailedPrecondition)
        << rig.engine->name();
    EXPECT_EQ(rig.engine->stats().predict_flops, 0.0);
    ASSERT_TRUE(rig.engine->Bootstrap().ok());
    EXPECT_TRUE(rig.engine->PredictClusterFor(BitVector(kBits)).ok());
  }
}

TEST(PlacementEngineTest, BootstrapPopulatesWholePool) {
  Rig rig(KMeans(4));
  rig.SeedWith(ClusteredData(64));
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  EXPECT_EQ(rig.engine->pool().TotalFree(), kSegments);
  EXPECT_GT(rig.engine->stats().train_flops, 0.0);
}

TEST(PlacementEngineTest, PlaceConsumesAndWrites) {
  Rig rig(KMeans(4));
  auto ds = ClusteredData(64);
  rig.SeedWith(ds);
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  auto addr = rig.engine->Place(ds.items[0]);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(rig.engine->pool().TotalFree(), kSegments - 1);
  EXPECT_EQ(rig.ctrl->Peek(*addr), ds.items[0]);
  EXPECT_EQ(rig.engine->stats().placements, 1u);
}

TEST(PlacementEngineTest, MemoryAwarePlacementBeatsArbitrary) {
  // The paper's core claim at module level: placing onto same-cluster
  // content flips far fewer bits than first-free placement.
  auto ds = ClusteredData(kSegments + 200);

  Rig aware_rig(KMeans(4));
  aware_rig.SeedWith(ds);
  ASSERT_TRUE(aware_rig.engine->Bootstrap().ok());

  Rig arb_rig_holder(KMeans(4));  // Device only; placer below.
  arb_rig_holder.SeedWith(ds);
  index::ArbitraryPlacer arbitrary(arb_rig_holder.ctrl.get(), 0,
                                   kSegments);

  uint64_t aware_flips_before =
      aware_rig.device->stats().total_bits_flipped();
  uint64_t arb_flips_before =
      arb_rig_holder.device->stats().total_bits_flipped();
  for (size_t i = 0; i < 100; ++i) {
    const BitVector& v = ds.items[kSegments + i];
    ASSERT_TRUE(aware_rig.engine->Place(v).ok());
    ASSERT_TRUE(arbitrary.Place(v).ok());
  }
  uint64_t aware_flips =
      aware_rig.device->stats().total_bits_flipped() - aware_flips_before;
  uint64_t arb_flips = arb_rig_holder.device->stats().total_bits_flipped() -
                       arb_flips_before;
  EXPECT_LT(aware_flips, arb_flips / 2)
      << "aware=" << aware_flips << " arbitrary=" << arb_flips;
}

TEST(PlacementEngineTest, ReleaseRecyclesByContent) {
  Rig rig(KMeans(4));
  auto ds = ClusteredData(64);
  rig.SeedWith(ds);
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  auto addr = rig.engine->Place(ds.items[0]);
  ASSERT_TRUE(addr.ok());
  size_t free_before = rig.engine->pool().TotalFree();
  ASSERT_TRUE(rig.engine->Release(*addr).ok());
  EXPECT_EQ(rig.engine->pool().TotalFree(), free_before + 1);
  EXPECT_EQ(rig.engine->stats().releases, 1u);
  // The recycled address must be in the cluster its content predicts.
  auto cluster = rig.engine->PredictClusterFor(rig.ctrl->Peek(*addr));
  ASSERT_TRUE(cluster.ok());
  EXPECT_GT(rig.engine->pool().FreeCount(*cluster), 0u);
}

TEST(PlacementEngineTest, ExhaustionReported) {
  Rig rig(KMeans(2));
  rig.SeedWith(ClusteredData(32));
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  BitVector v(kBits);
  for (size_t i = 0; i < kSegments; ++i) {
    ASSERT_TRUE(rig.engine->Place(v).ok()) << i;
  }
  EXPECT_EQ(rig.engine->Place(v).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(PlacementEngineTest, SearchBestFindsCloserMatches) {
  auto ds = ClusteredData(kSegments + 100, 9);
  PlacementEngine::Config best_cfg;
  best_cfg.search_best_in_cluster = true;
  Rig first_rig(KMeans(4));
  Rig best_rig(KMeans(4), best_cfg);
  first_rig.SeedWith(ds);
  best_rig.SeedWith(ds);
  ASSERT_TRUE(first_rig.engine->Bootstrap().ok());
  ASSERT_TRUE(best_rig.engine->Bootstrap().ok());
  for (size_t i = 0; i < 60; ++i) {
    const BitVector& v = ds.items[kSegments + i];
    ASSERT_TRUE(first_rig.engine->Place(v).ok());
    ASSERT_TRUE(best_rig.engine->Place(v).ok());
  }
  // Best-search can only improve (or match) flips.
  EXPECT_LE(best_rig.device->stats().total_bits_flipped(),
            first_rig.device->stats().total_bits_flipped());
}

TEST(PlacementEngineTest, EmptyClusterFallbackCountedInBothModes) {
  // Draining the predicted cluster makes Acquire and AcquireBest alike
  // fall back to the fullest cluster; both modes must count it.
  auto ds = ClusteredData(64);
  for (bool search_best : {false, true}) {
    PlacementEngine::Config ec;
    ec.search_best_in_cluster = search_best;
    Rig rig(KMeans(4), ec);
    rig.SeedWith(ds);
    ASSERT_TRUE(rig.engine->Bootstrap().ok());
    auto cluster = rig.engine->PredictClusterFor(ds.items[0]);
    ASSERT_TRUE(cluster.ok());
    DynamicAddressPool& pool = rig.engine->mutable_pool();
    while (pool.FreeCount(*cluster) > 0) pool.Acquire(*cluster);
    ASSERT_TRUE(rig.engine->Place(ds.items[0]).ok());
    EXPECT_EQ(rig.engine->stats().fallback_acquires, 1u)
        << "search_best=" << search_best;
    EXPECT_EQ(rig.engine->stats().fallback_placements, 1u)
        << "search_best=" << search_best;
  }
}

TEST(PlacementEngineTest, RetrainRebuildsPool) {
  Rig rig(KMeans(4));
  auto ds = ClusteredData(64);
  rig.SeedWith(ds);
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rig.engine->Place(ds.items[i]).ok());
  }
  size_t free_before = rig.engine->pool().TotalFree();
  ASSERT_TRUE(rig.engine->Retrain().ok());
  EXPECT_EQ(rig.engine->pool().TotalFree(), free_before);
  EXPECT_EQ(rig.engine->stats().retrains, 1u);
}

TEST(PlacementEngineTest, RetrainOffServesModelsWithoutTrainingState) {
  // With retraining off nothing trains the serving model again: the
  // bootstrap's model and a manual Retrain's fresh one (trained from a
  // CloneUntrained) each serve without their training state. With
  // retraining on the model keeps it.
  core::E2ModelConfig mc;
  mc.input_dim = kBits;
  mc.k = 4;
  mc.pretrain_epochs = 2;
  mc.finetune_rounds = 1;
  auto ds = ClusteredData(kSegments + 20);
  for (bool auto_retrain : {false, true}) {
    SCOPED_TRACE(auto_retrain ? "retraining on" : "retraining off");
    PlacementEngine::Config ec;
    ec.auto_retrain = auto_retrain;
    ec.retrain.min_free_per_cluster = 0;
    Rig rig(std::make_unique<E2Model>(mc), ec);
    rig.SeedWith(ds);
    auto serving = [&]() -> const E2Model& {
      return dynamic_cast<const E2Model&>(rig.engine->clusterer());
    };
    ASSERT_TRUE(rig.engine->Bootstrap().ok());
    EXPECT_EQ(serving().serving_only(), !auto_retrain);
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(rig.engine->Place(ds.items[kSegments + i]).ok());
    }
    ASSERT_TRUE(rig.engine->Retrain().ok());
    EXPECT_EQ(rig.engine->stats().retrains, 1u);
    EXPECT_TRUE(serving().has_vae());
    EXPECT_EQ(serving().serving_only(), !auto_retrain);
    for (size_t i = 10; i < 20; ++i) {
      ASSERT_TRUE(rig.engine->Place(ds.items[kSegments + i]).ok());
    }
    EXPECT_EQ(rig.engine->stats().fallback_placements, 0u);
  }
}

TEST(PlacementEngineTest, CpuEnergyCharged) {
  Rig rig(KMeans(4));
  auto ds = ClusteredData(64);
  rig.SeedWith(ds);
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  double train_energy =
      rig.device->meter().DomainPj(nvm::EnergyDomain::kCpuModel);
  EXPECT_GT(train_energy, 0.0);
  ASSERT_TRUE(rig.engine->Place(ds.items[0]).ok());
  EXPECT_GT(rig.device->meter().DomainPj(nvm::EnergyDomain::kCpuModel),
            train_energy);
}

TEST(PlacementEngineTest, NarrowValueZeroExtendedByDefault) {
  Rig rig(KMeans(4));
  auto ds = ClusteredData(64);
  rig.SeedWith(ds);
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  BitVector narrow(100);
  narrow.Set(0, true);
  auto addr = rig.engine->Place(narrow);
  ASSERT_TRUE(addr.ok());
  // Only the first 100 bits were written; the tail keeps old content.
  EXPECT_EQ(rig.ctrl->Peek(*addr).Slice(0, 100), narrow);
}

TEST(PlacementEngineTest, ExtendRegionIndexesIncrementally) {
  // Incremental DAP indexing (§4.1.4): bootstrap over half the device,
  // extend over the rest without retraining.
  nvm::DeviceConfig dc;
  dc.num_segments = kSegments;
  dc.segment_bits = kBits;
  nvm::NvmDevice device(dc);
  schemes::Dcw dcw;
  nvm::MemoryController ctrl(&device, &dcw, kSegments, 0);
  auto ds = ClusteredData(kSegments);
  auto sized = workload::ResizeItems(ds, kBits);
  for (size_t i = 0; i < kSegments; ++i) {
    ctrl.Seed(i, sized.items[i % sized.items.size()]);
  }
  PlacementEngine::Config ec;
  ec.first_segment = 0;
  ec.num_segments = kSegments / 2;
  PlacementEngine engine(&ctrl, KMeans(4), ec);

  EXPECT_EQ(engine.ExtendRegion(4).code(),
            StatusCode::kFailedPrecondition);  // Before bootstrap.
  ASSERT_TRUE(engine.Bootstrap().ok());
  EXPECT_EQ(engine.pool().TotalFree(), kSegments / 2);
  ASSERT_TRUE(engine.ExtendRegion(kSegments / 2).ok());
  EXPECT_EQ(engine.pool().TotalFree(), kSegments);
  // Extending past the device fails.
  EXPECT_EQ(engine.ExtendRegion(1).code(), StatusCode::kOutOfRange);
  // The extended addresses are usable.
  for (size_t i = 0; i < kSegments; ++i) {
    ASSERT_TRUE(engine.Place(ds.items[i % ds.items.size()]).ok()) << i;
  }
}

TEST(PlacementEngineTest, WiderThanSegmentRejected) {
  Rig rig(KMeans(4));
  rig.SeedWith(ClusteredData(64));
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  EXPECT_EQ(rig.engine->Place(BitVector(kBits + 1)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlacementEngineTest, SnapshotRowsAreThePeekedWords) {
  // The packed rows every training reads hold the decoded content Peek
  // returns, row i for addrs[i]: through Start-Gap's moving map (a gap
  // move every 3 writes) and a scheme that stores some words inverted.
  for (uint64_t psi : {uint64_t{0}, uint64_t{3}}) {
    nvm::DeviceConfig dc;
    dc.num_segments = psi > 0 ? kSegments + 1 : kSegments;
    dc.segment_bits = kBits;
    nvm::NvmDevice device(dc);
    schemes::FlipNWrite fnw;
    nvm::MemoryController ctrl(&device, &fnw, kSegments, psi);
    PlacementEngine::Config ec;
    ec.num_segments = kSegments;
    PlacementEngine engine(&ctrl, KMeans(4), ec);
    const auto seed = ClusteredData(kSegments);
    for (size_t i = 0; i < kSegments; ++i) ctrl.Seed(i, seed.items[i]);
    ASSERT_TRUE(engine.Bootstrap().ok());
    const auto writes = ClusteredData(60, 5);
    for (const BitVector& v : writes.items) ASSERT_TRUE(engine.Place(v).ok());
    if (psi > 0) {
      EXPECT_GT(ctrl.leveler()->moves(), 0u);
    }

    std::vector<uint64_t> addrs;  // Every address, in reverse.
    for (size_t i = kSegments; i-- > 0;) addrs.push_back(i);
    const ml::BitMatrix rows = engine.SnapshotContents(addrs);
    ASSERT_EQ(rows.rows(), addrs.size());
    ASSERT_EQ(rows.cols(), kBits);
    for (size_t i = 0; i < addrs.size(); ++i) {
      const BitVector want = ctrl.Peek(addrs[i]);
      ASSERT_EQ(want.num_words(), rows.row_words());
      for (size_t w = 0; w < rows.row_words(); ++w) {
        ASSERT_EQ(rows.Row(i)[w], want.words()[w])
            << "psi " << psi << " addr " << addrs[i] << " word " << w;
      }
    }
  }
}

}  // namespace
}  // namespace e2nvm::core
