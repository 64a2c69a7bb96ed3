#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/store.h"
#include "nvm/fault_injector.h"

namespace e2nvm::core {
namespace {

StoreConfig FaultStoreConfig() {
  StoreConfig cfg;
  cfg.num_segments = 128;
  cfg.segment_bits = 256;
  cfg.model.k = 4;
  cfg.model.hidden_dim = 32;
  cfg.model.latent_dim = 6;
  cfg.model.pretrain_epochs = 4;
  cfg.model.finetune_rounds = 1;
  cfg.verify_writes = true;
  cfg.max_write_retries = 2;
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

/// Sticks 12 cells of `seg` at alternating values: no realistic value can
/// match all of them, so a write-verify there always needs more repairs
/// than the spare budget allows and the segment quarantines on first use.
void PoisonSegment(nvm::FaultInjector& inj, size_t seg) {
  for (size_t b = 0; b < 12; ++b) inj.StickCell(seg, b, b % 2 == 0);
}

struct RunCounters {
  nvm::DeviceStats dev;
  nvm::FaultStats fault;
  EngineStats engine;
  size_t quarantined;
};

/// A YCSB-style update-heavy run against a store with 1% of cells stuck
/// plus a few unrecoverable segments. Every operation must succeed.
RunCounters DegradedRun() {
  nvm::FaultConfig fc;
  fc.seed = 77;
  fc.initial_stuck_fraction = 0.01;
  fc.spare_cells_per_segment = 5;
  nvm::FaultInjector inj(fc);

  auto store = E2KvStore::Create(FaultStoreConfig()).value();
  store->device().AttachFaultInjector(&inj);
  for (size_t seg : {5u, 17u, 33u, 60u}) PoisonSegment(inj, seg);
  store->Seed(SeedData());
  EXPECT_TRUE(store->Bootstrap().ok());

  auto ds = SeedData(2);
  constexpr uint64_t kKeys = 50;
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(store->Put(k, ds.items[k]).ok()) << k;
  }
  Rng rng(123);
  std::vector<uint64_t> latest(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) latest[k] = k;
  for (int op = 0; op < 400; ++op) {
    uint64_t key = rng.NextBounded(kKeys);
    uint64_t item = rng.NextBounded(ds.items.size());
    EXPECT_TRUE(store->Put(key, ds.items[item]).ok()) << "op " << op;
    latest[key] = item;
  }
  // Zero client-visible corruption: every key reads back exactly.
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto v = store->Get(k);
    EXPECT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, ds.items[latest[k]]) << k;
  }

  RunCounters out;
  out.dev = store->device().stats();
  out.fault = inj.stats();
  out.engine = store->engine().stats();
  out.quarantined = store->controller().quarantined_count();
  store->device().AttachFaultInjector(nullptr);
  return out;
}

TEST(StoreFaultTest, DegradedRunHasNoClientVisibleErrors) {
  RunCounters r = DegradedRun();
  // The degradation machinery visibly absorbed real faults ...
  EXPECT_GT(r.quarantined, 0u);
  EXPECT_GT(r.engine.quarantined_segments, 0u);
  EXPECT_GT(r.engine.fallback_placements, 0u);
  EXPECT_GT(r.engine.write_retries, 0u);
  EXPECT_GT(r.dev.verify_retries, 0u);
  EXPECT_GT(r.dev.repaired_cells, 0u);
  EXPECT_GT(r.fault.stuck_clamps, 0u);
  // ... while the pool never ran dry (errors would have tripped above).
  EXPECT_GT(r.engine.placements, 400u);
}

TEST(StoreFaultTest, DegradedRunReplaysDeterministically) {
  RunCounters a = DegradedRun();
  RunCounters b = DegradedRun();
  EXPECT_EQ(a.dev.data_bits_flipped, b.dev.data_bits_flipped);
  EXPECT_EQ(a.dev.faults_injected, b.dev.faults_injected);
  EXPECT_EQ(a.dev.verify_retries, b.dev.verify_retries);
  EXPECT_EQ(a.dev.verify_failures, b.dev.verify_failures);
  EXPECT_EQ(a.dev.repaired_cells, b.dev.repaired_cells);
  EXPECT_EQ(a.fault.stuck_cells, b.fault.stuck_cells);
  EXPECT_EQ(a.fault.stuck_clamps, b.fault.stuck_clamps);
  EXPECT_EQ(a.fault.repairs_denied, b.fault.repairs_denied);
  EXPECT_EQ(a.engine.quarantined_segments, b.engine.quarantined_segments);
  EXPECT_EQ(a.engine.fallback_placements, b.engine.fallback_placements);
  EXPECT_EQ(a.quarantined, b.quarantined);
}

TEST(StoreFaultTest, PoolExhaustionRecyclesOnDelete) {
  StoreConfig cfg = FaultStoreConfig();
  cfg.num_segments = 16;
  cfg.verify_writes = false;
  auto store = E2KvStore::Create(cfg).value();
  store->Seed(SeedData(3));
  ASSERT_TRUE(store->Bootstrap().ok());

  auto ds = SeedData(4);
  // Distinct keys each consume one segment; 16 fit, the 17th must not.
  for (uint64_t k = 0; k < 16; ++k) {
    ASSERT_TRUE(store->Put(k, ds.items[k]).ok()) << k;
  }
  EXPECT_EQ(store->engine().pool().TotalFree(), 0u);
  Status full = store->Put(16, ds.items[16]);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);

  // Deleting recycles exactly one address, which the next Put reuses.
  uint64_t freed = store->tree().Get(7).value();
  ASSERT_TRUE(store->Delete(7).ok());
  EXPECT_EQ(store->engine().pool().TotalFree(), 1u);
  ASSERT_TRUE(store->Put(16, ds.items[16]).ok());
  EXPECT_EQ(store->tree().Get(16).value(), freed);
  EXPECT_EQ(store->Get(16).value(), ds.items[16]);
}

TEST(StoreFaultTest, FailedRetrainBacksOff) {
  StoreConfig cfg = FaultStoreConfig();
  cfg.num_segments = 8;
  cfg.verify_writes = false;
  cfg.auto_retrain = true;
  cfg.retrain.min_free_per_cluster = 100000;  // Always wants a retrain.
  auto store = E2KvStore::Create(cfg).value();
  store->Seed(SeedData(5));
  ASSERT_TRUE(store->Bootstrap().ok());

  auto ds = SeedData(6);
  // Occupy segments until fewer than k=4 are free: from here on every
  // retrain attempt fails (too few free segments to train on).
  for (uint64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(store->Put(k, ds.items[k]).ok()) << k;
  }
  ASSERT_LT(store->engine().pool().TotalFree(), 4u);
  uint64_t failures_at_start = store->engine().stats().failed_retrains;

  constexpr int kUpdates = 100;
  for (int op = 0; op < kUpdates; ++op) {
    ASSERT_TRUE(
        store->Put(op % 6, ds.items[(op + 7) % ds.items.size()]).ok());
  }
  uint64_t failures =
      store->engine().stats().failed_retrains - failures_at_start;
  // Without the backoff this would fail on every one of the 100 updates;
  // with doubling starting at PlacementEngine::kRetrainBackoffWrites (64)
  // it fails only a handful of times.
  EXPECT_GE(failures, 1u);
  EXPECT_LE(failures, 6u);
  EXPECT_GT(store->engine().retrain_cooldown(), 0u);
}

}  // namespace
}  // namespace e2nvm::core
