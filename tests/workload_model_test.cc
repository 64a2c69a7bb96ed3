// Oracle-backed replay of the workload scenario matrix (DESIGN.md §15):
// short versions of every bench/workload_sweep scenario shape — skew,
// the YCSB mixes, churn, drift, mixed width — run against a
// ShardedStore and a std::unordered_map shadow oracle, asserting
//
//  1. read-your-writes: every GET (including scan sub-reads and the
//     read half of RMW) returns exactly the oracle's value, and keys
//     outside the generator's live window are NotFound;
//  2. post-drain key-set equality: after the stream ends and any
//     in-flight background retrain is adopted, the store holds exactly
//     the oracle's key set, value-for-value.
//
// Background retraining is ON with the sweep's drain-on-trigger policy
// (wait out any in-flight retrain after every op), so the oracle also
// covers reads that cross a model swap. Single-threaded op stream —
// failures replay deterministically from the scenario name.
//
// The drift test at the bottom is the §5.3 adaptability property: a
// phase shift of the latent value classes degrades flips-per-bit, the
// efficiency trigger launches a background retrain, and after the swap
// the flips-per-bit of steady-state updates recovers.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvec.h"
#include "core/sharded_store.h"
#include "workload/datasets.h"
#include "workload/ycsb.h"

namespace e2nvm::core {
namespace {

using workload::OpType;
using workload::YcsbWorkload;

constexpr size_t kSegmentsPerShard = 96;
constexpr size_t kBits = 128;
constexpr size_t kClasses = 4;
constexpr uint64_t kRecords = 48;
constexpr uint64_t kOps = 400;

struct ScenarioCase {
  std::string name;
  YcsbWorkload workload = YcsbWorkload::kA;
  double theta = 0.99;
  double churn = 0.0;
  uint64_t drift_period = 0;
  bool mixed_width = false;
};

std::vector<ScenarioCase> Matrix() {
  return {
      {"skew_low_theta", YcsbWorkload::kA, 0.50},
      {"mix_b", YcsbWorkload::kB},
      {"mix_c", YcsbWorkload::kC},
      {"mix_d_inserts", YcsbWorkload::kD},
      {"mix_e_scans", YcsbWorkload::kE},
      {"mix_f_rmw", YcsbWorkload::kF},
      {"churn", YcsbWorkload::kA, 0.99, 0.3},
      {"drift", YcsbWorkload::kA, 0.99, 0.0, kOps / 3},
      {"mixed_width", YcsbWorkload::kA, 0.99, 0.0, 0, true},
  };
}

workload::YcsbGenerator::Config GenConfig(const ScenarioCase& sc) {
  workload::YcsbGenerator::Config gc;
  gc.workload = sc.workload;
  gc.record_count = kRecords;
  gc.value_bits = kBits;
  gc.num_value_classes = kClasses;
  gc.max_scan_len = 8;
  gc.zipf_theta = sc.theta;
  gc.churn_fraction = sc.churn;
  gc.drift_period = sc.drift_period;
  if (sc.mixed_width) gc.width_mix = {kBits / 4, kBits / 2, kBits};
  return gc;
}

std::unique_ptr<ShardedStore> MakeStore(size_t shards,
                                        const ScenarioCase& sc) {
  ShardedStoreConfig cfg;
  cfg.num_shards = shards;
  cfg.shard.num_segments = kSegmentsPerShard;
  cfg.shard.segment_bits = kBits;
  cfg.shard.model.input_dim = kBits;
  cfg.shard.model.k = kClasses;
  cfg.shard.model.pretrain_epochs = 2;
  cfg.shard.auto_retrain = true;
  cfg.shard.background_retrain = true;
  cfg.shard.retrain.window = 40;
  cfg.shard.retrain.baseline_writes = 40;
  cfg.shard.retrain.degradation_factor = 1.4;
  auto store_or = ShardedStore::Create(cfg);
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();

  // Seed from the scenario's own phase-0 prototypes (full width), like
  // the sweep does.
  workload::YcsbGenerator::Config gc = GenConfig(sc);
  gc.width_mix.clear();
  workload::YcsbGenerator seed_gen(gc);
  workload::BitDataset ds;
  ds.dim = kBits;
  for (uint64_t k = 0; k < kRecords; ++k) {
    ds.items.push_back(seed_gen.MakeValue(k, 0));
    ds.labels.push_back(static_cast<int>(k % kClasses));
  }
  (*store_or)->Seed(ds);
  Status st = (*store_or)->Bootstrap();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return std::move(*store_or);
}

void ReplayScenario(const ScenarioCase& sc, size_t shards) {
  SCOPED_TRACE(sc.name + " shards=" + std::to_string(shards));
  auto store = MakeStore(shards, sc);
  workload::YcsbGenerator gen(GenConfig(sc));
  std::unordered_map<uint64_t, uint32_t> versions;
  std::unordered_map<uint64_t, BitVector> oracle;

  for (uint64_t k = 0; k < kRecords; ++k) {
    BitVector v = gen.MakeValue(k, 0);
    ASSERT_TRUE(store->Put(k, v).ok());
    versions[k] = 0;
    oracle[k] = std::move(v);
  }
  store->PumpRetrains();

  BitVector scratch(kBits);
  auto check_read = [&](uint64_t key) {
    Status st = store->GetInto(key, &scratch);
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      EXPECT_FALSE(st.ok()) << "ghost key " << key;
    } else {
      ASSERT_TRUE(st.ok()) << "key " << key << ": " << st.ToString();
      EXPECT_EQ(scratch, it->second) << "key " << key;
    }
  };
  auto write = [&](uint64_t key, uint32_t version) {
    BitVector v = gen.MakeValue(key, version);
    ASSERT_TRUE(store->Put(key, v).ok()) << "key " << key;
    oracle[key] = std::move(v);
  };

  for (uint64_t i = 0; i < kOps; ++i) {
    const workload::YcsbOp op = gen.Next();
    switch (op.type) {
      case OpType::kRead:
        check_read(op.key);
        break;
      case OpType::kUpdate:
        write(op.key, ++versions[op.key]);
        break;
      case OpType::kInsert:
        versions[op.key] = 0;
        write(op.key, 0);
        break;
      case OpType::kDelete:
        versions.erase(op.key);
        oracle.erase(op.key);
        ASSERT_TRUE(store->Delete(op.key).ok()) << "key " << op.key;
        break;
      case OpType::kScan:
        // The sweep's scan shape: consecutive keys, misses past the live
        // window. Every key inside the window must be in the oracle.
        for (size_t j = 0; j < op.scan_len; ++j) {
          const uint64_t k = op.key + j;
          const bool in_window =
              k >= gen.oldest_live() && k < gen.current_records();
          EXPECT_EQ(in_window, oracle.count(k) > 0) << "key " << k;
          check_read(k);
        }
        break;
      case OpType::kReadModifyWrite:
        check_read(op.key);
        write(op.key, ++versions[op.key]);
        break;
    }
    store->PumpRetrains();
  }
  store->PumpRetrains();

  // Post-drain key-set equality, value for value.
  EXPECT_EQ(store->size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    auto got = store->Get(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    EXPECT_EQ(*got, value) << "key " << key;
  }
  // A band of keys just outside the live window must be absent.
  for (uint64_t k = gen.current_records(); k < gen.current_records() + 8;
       ++k) {
    EXPECT_FALSE(store->Get(k).ok()) << "key " << k;
  }
  if (gen.oldest_live() > 0) {
    EXPECT_FALSE(store->Get(gen.oldest_live() - 1).ok());
  }
}

class WorkloadModelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkloadModelTest, ScenarioMatrixMatchesOracle) {
  for (const ScenarioCase& sc : Matrix()) ReplayScenario(sc, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Shards, WorkloadModelTest,
                         ::testing::Values(1, 2));

// --- Drift / adaptability (§5.3) --------------------------------------

/// Flips-per-bit of `n` round-robin updates through the live key set.
double UpdateRatio(ShardedStore& store, workload::YcsbGenerator& gen,
                   std::unordered_map<uint64_t, uint32_t>& versions,
                   uint64_t records, int n) {
  const auto before = store.TakeSnapshot();
  for (int i = 0; i < n; ++i) {
    const uint64_t key = static_cast<uint64_t>(i) % records;
    BitVector v = gen.MakeValue(key, ++versions[key]);
    EXPECT_TRUE(store.Put(key, v).ok());
    store.PumpRetrains();
  }
  const auto after = store.TakeSnapshot();
  const uint64_t flips = after.device.total_bits_flipped() -
                         before.device.total_bits_flipped();
  const uint64_t bits = after.device.logical_bits_written -
                        before.device.logical_bits_written;
  return bits > 0 ? static_cast<double>(flips) / bits : 0.0;
}

TEST(WorkloadDriftTest, PhaseShiftTriggersRetrainAndFlipsRecover) {
  ScenarioCase sc;
  sc.name = "drift_unit";
  auto store = MakeStore(1, sc);
  workload::YcsbGenerator gen(GenConfig(sc));
  std::unordered_map<uint64_t, uint32_t> versions;
  for (uint64_t k = 0; k < kRecords; ++k) {
    ASSERT_TRUE(store->Put(k, gen.MakeValue(k, 0)).ok());
    versions[k] = 0;
  }
  store->PumpRetrains();

  // Steady state on the trained distribution.
  const double pre = UpdateRatio(*store, gen, versions, kRecords, 100);
  const uint64_t bg0 = store->TakeSnapshot().engine.background_retrains;

  // The phase shift re-draws every class prototype: the serving model
  // now clusters by a distribution that no longer exists in memory.
  gen.AdvancePhase();
  const double degraded =
      UpdateRatio(*store, gen, versions, kRecords, 40);
  EXPECT_GT(degraded, pre * 1.4) << "shift did not degrade flips";

  // Keep writing until the efficiency trigger has fired (the drain
  // policy adopts the swap immediately); bounded, so a broken trigger
  // fails the test instead of hanging it.
  uint64_t bg1 = bg0;
  for (int i = 0; i < 300 && bg1 == bg0; ++i) {
    UpdateRatio(*store, gen, versions, kRecords, 10);
    bg1 = store->TakeSnapshot().engine.background_retrains;
  }
  EXPECT_GT(bg1, bg0) << "no background retrain after phase shift";

  // After the swap (and a settling pass so every live segment holds
  // current-phase content), steady-state updates recover.
  UpdateRatio(*store, gen, versions, kRecords, 100);
  const double recovered =
      UpdateRatio(*store, gen, versions, kRecords, 100);
  EXPECT_LT(recovered, degraded * 0.9)
      << "pre=" << pre << " degraded=" << degraded
      << " recovered=" << recovered;
}

}  // namespace
}  // namespace e2nvm::core
