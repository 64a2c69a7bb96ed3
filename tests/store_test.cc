#include "core/store.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/matrix.h"

namespace e2nvm::core {
namespace {

StoreConfig SmallStoreConfig() {
  StoreConfig cfg;
  cfg.num_segments = 128;
  cfg.segment_bits = 256;
  cfg.model.k = 4;
  cfg.model.hidden_dim = 32;
  cfg.model.latent_dim = 6;
  cfg.model.pretrain_epochs = 4;
  cfg.model.finetune_rounds = 1;
  return cfg;
}

workload::BitDataset SeedData(uint64_t seed = 1) {
  workload::ProtoConfig cfg;
  cfg.dim = 256;
  cfg.num_classes = 4;
  cfg.samples = 200;
  cfg.noise = 0.03;
  cfg.seed = seed;
  return workload::MakeProtoDataset(cfg);
}

std::unique_ptr<E2KvStore> MakeStore(StoreConfig cfg = SmallStoreConfig()) {
  auto store = E2KvStore::Create(cfg);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  (*store)->Seed(SeedData());
  EXPECT_TRUE((*store)->Bootstrap().ok());
  return std::move(*store);
}

TEST(StoreTest, CreateRejectsEmptyGeometry) {
  StoreConfig cfg;
  cfg.num_segments = 0;
  EXPECT_FALSE(E2KvStore::Create(cfg).ok());
}

TEST(StoreTest, ZeroBatchSizeIsRefusedByBootstrap) {
  // Training steps through its rows a batch at a time, so a batch of 0
  // would never advance: the model refuses it before training.
  StoreConfig cfg = SmallStoreConfig();
  cfg.num_segments = 64;
  cfg.model.batch_size = 0;
  auto store = E2KvStore::Create(cfg);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  (*store)->Seed(SeedData());
  EXPECT_EQ((*store)->Bootstrap().code(), StatusCode::kInvalidArgument);
}

TEST(StoreTest, PooledStoresKeepTheirPoolsToThemselves) {
  // A pooled store pins its pool inside its own operations only: with
  // two alive, the caller's kernels still run inline, and neither store
  // runs on the other's pool, before or after the other is gone.
  StoreConfig cfg = SmallStoreConfig();
  cfg.pool_threads = 2;
  auto a = MakeStore(cfg);
  auto b = MakeStore(cfg);
  EXPECT_EQ(ml::compute_pool(), nullptr);
  const auto ds = SeedData(2);
  ASSERT_TRUE(a->Put(1, ds.items[1]).ok());
  ASSERT_TRUE(b->Put(2, ds.items[2]).ok());
  ASSERT_TRUE(a->Delete(1).ok());
  EXPECT_EQ(ml::compute_pool(), nullptr);
  a.reset();
  ASSERT_TRUE(b->Put(3, ds.items[3]).ok());
  EXPECT_EQ(b->Get(3).value(), ds.items[3]);
  EXPECT_EQ(ml::compute_pool(), nullptr);
}

TEST(StoreTest, PutGetRoundTrip) {
  auto store = MakeStore();
  auto ds = SeedData(2);
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(store->Put(k, ds.items[k]).ok());
  }
  EXPECT_EQ(store->size(), 20u);
  for (uint64_t k = 0; k < 20; ++k) {
    auto v = store->Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, ds.items[k]) << k;
  }
  EXPECT_FALSE(store->Get(999).ok());
}

TEST(StoreTest, UpdateReplacesAndRecycles) {
  auto store = MakeStore();
  auto ds = SeedData(3);
  ASSERT_TRUE(store->Put(7, ds.items[0]).ok());
  size_t free_after_put = store->engine().pool().TotalFree();
  ASSERT_TRUE(store->Put(7, ds.items[1]).ok());
  // New address consumed, old one recycled: net free unchanged.
  EXPECT_EQ(store->engine().pool().TotalFree(), free_after_put);
  EXPECT_EQ(store->Get(7).value(), ds.items[1]);
  EXPECT_EQ(store->size(), 1u);
}

TEST(StoreTest, DeleteRemovesAndRecycles) {
  auto store = MakeStore();
  auto ds = SeedData(4);
  ASSERT_TRUE(store->Put(1, ds.items[0]).ok());
  size_t free_now = store->engine().pool().TotalFree();
  ASSERT_TRUE(store->Delete(1).ok());
  EXPECT_EQ(store->engine().pool().TotalFree(), free_now + 1);
  EXPECT_FALSE(store->Get(1).ok());
  EXPECT_EQ(store->Delete(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(store->size(), 0u);
}

TEST(StoreTest, ScanReturnsOrderedRange) {
  auto store = MakeStore();
  auto ds = SeedData(5);
  for (uint64_t k = 0; k < 30; k += 2) {
    ASSERT_TRUE(store->Put(k, ds.items[k]).ok());
  }
  auto scan = store->Scan(10, 5);
  ASSERT_EQ(scan.size(), 5u);
  EXPECT_EQ(scan[0].first, 10u);
  EXPECT_EQ(scan[0].second, ds.items[10]);
  for (size_t i = 1; i < scan.size(); ++i) {
    EXPECT_GT(scan[i].first, scan[i - 1].first);
  }
}

TEST(StoreTest, VariableSizeValues) {
  auto store = MakeStore();
  BitVector small(100);
  small.Set(3, true);
  ASSERT_TRUE(store->Put(5, small).ok());
  auto v = store->Get(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 100u);
  EXPECT_EQ(*v, small);
}

TEST(StoreTest, WearLevelingKeepsSemantics) {
  StoreConfig cfg = SmallStoreConfig();
  cfg.psi = 4;  // Gap move every 4 writes.
  auto store = E2KvStore::Create(cfg);
  ASSERT_TRUE(store.ok());
  (*store)->Seed(SeedData(6));
  ASSERT_TRUE((*store)->Bootstrap().ok());
  auto ds = SeedData(7);
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE((*store)->Put(k, ds.items[k]).ok());
  }
  for (uint64_t k = 0; k < 40; ++k) {
    auto v = (*store)->Get(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, ds.items[k]) << k;
  }
  ASSERT_NE((*store)->controller().leveler(), nullptr);
  EXPECT_GT((*store)->controller().leveler()->moves(), 0u);
}

TEST(StoreTest, FlipsStayLowOnClusterableWrites) {
  auto store = MakeStore();
  // Same distribution the store was seeded (and its model trained) on:
  // seed 1 reproduces the same class prototypes.
  auto ds = SeedData(1);
  uint64_t writes = 0;
  store->device().ResetStats();
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(store->Put(k, ds.items[k % ds.items.size()]).ok());
    ++writes;
  }
  // Average flips per write should be far below half the segment
  // (random placement would flip ~dim/2 plus noise; same-cluster
  // placement flips ~2*noise*dim).
  double flips_per_write =
      static_cast<double>(store->device().stats().total_bits_flipped()) /
      static_cast<double>(writes);
  EXPECT_LT(flips_per_write, 256 * 0.25)
      << "flips/write=" << flips_per_write;
}

TEST(StoreTest, EnergyAccumulatesAcrossDomains) {
  auto store = MakeStore();
  auto ds = SeedData(9);
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(store->Put(k, ds.items[k]).ok());
    ASSERT_TRUE(store->Get(k).ok());
  }
  auto& meter = store->meter();
  EXPECT_GT(meter.DomainPj(nvm::EnergyDomain::kPmemWrite), 0.0);
  EXPECT_GT(meter.DomainPj(nvm::EnergyDomain::kPmemRead), 0.0);
  EXPECT_GT(meter.DomainPj(nvm::EnergyDomain::kCpuModel), 0.0);
  EXPECT_GT(meter.now_ns(), 0.0);
}

TEST(StoreTest, TreeInvariantsHoldUnderChurn) {
  auto store = MakeStore();
  auto ds = SeedData(10);
  Rng rng(11);
  for (int op = 0; op < 200; ++op) {
    uint64_t key = rng.NextBounded(50);
    if (rng.NextBernoulli(0.7)) {
      ASSERT_TRUE(
          store->Put(key, ds.items[key % ds.items.size()]).ok());
    } else {
      store->Delete(key);  // May be NotFound; that's fine.
    }
  }
  EXPECT_TRUE(store->tree().CheckInvariants());
}

}  // namespace
}  // namespace e2nvm::core
