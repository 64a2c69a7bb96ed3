// Concurrent stress of the sharded store, written to run under TSan
// (registered in the E2NVM_SANITIZE=thread stage of scripts/check.sh):
//
//  - 8 client threads drive a mixed PUT/GET/DELETE/MultiPut workload over
//    disjoint key stripes with background retraining forced on, while a
//    monitor thread takes merged snapshots and pumps retrain swaps. After
//    join, every stripe's shadow oracle must agree with the store and the
//    per-shard DAP conservation invariant must hold.
//
//  - A same-shard hammer aims every thread at ONE shard, so the shard
//    mutex is the only thing between concurrent callers and the
//    placement engine's unsynchronized internals (Release's
//    placed_cluster_ memo, EngineStats counters) — the regression test
//    for the engine's documented external-locking contract.
//
//  - A shared-model case runs one client per shard of a store whose
//    shards serve one bootstrap model, with refine steps and background
//    retraining on: shards take private copies at different times while
//    the others still place through the shared instance under their own
//    locks.

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/lock_audit.h"
#include "common/rng.h"
#include "core/sharded_store.h"
#include "workload/datasets.h"

namespace e2nvm::core {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kSegmentsPerShard = 128;
constexpr size_t kBits = 256;
constexpr size_t kThreads = 8;

workload::BitDataset ClusteredData(uint64_t seed) {
  workload::ProtoConfig cfg;
  cfg.dim = kBits;
  cfg.num_classes = 4;
  cfg.samples = kSegmentsPerShard + 32;
  cfg.noise = 0.03;
  cfg.seed = seed;
  return workload::MakeProtoDataset(cfg);
}

std::unique_ptr<ShardedStore> MakeStore(const workload::BitDataset& ds,
                                        size_t num_shards,
                                        size_t pool_threads,
                                        size_t min_free_per_cluster = 8) {
  ShardedStoreConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard.num_segments = kSegmentsPerShard;
  cfg.shard.segment_bits = kBits;
  cfg.shard.model.k = 4;
  cfg.shard.model.pretrain_epochs = 2;
  cfg.shard.model.finetune_rounds = 1;
  cfg.shard.auto_retrain = true;
  cfg.shard.background_retrain = true;
  cfg.shard.retrain.min_free_per_cluster = min_free_per_cluster;
  cfg.pool_threads = pool_threads;
  auto store_or = ShardedStore::Create(cfg);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

void CheckConservation(ShardedStore& store) {
  for (size_t s = 0; s < store.num_shards(); ++s) {
    E2KvStore& shard = store.shard(s);
    EXPECT_EQ(shard.engine().pool().TotalFree() + shard.size(),
              kSegmentsPerShard)
        << "shard " << s;
  }
}

TEST(ShardedStress, ConcurrentMixedWorkloadAgreesWithOracles) {
  auto ds = ClusteredData(29);
  auto store = MakeStore(ds, kShards, /*pool_threads=*/2);

  // Thread t owns keys with key % kThreads == t: stripes are disjoint, so
  // each thread's private oracle is exact, while stripes interleave
  // across shards so every shard sees contention from several threads.
  const uint64_t keys_per_thread = 32;
  const size_t ops_per_thread = 300;
  std::atomic<bool> failed{false};
  std::atomic<bool> stop_monitor{false};

  std::thread monitor([&] {
    while (!stop_monitor.load(std::memory_order_acquire)) {
      auto snap = store->TakeSnapshot();
      if (snap.keys > kThreads * keys_per_thread) {
        failed.store(true, std::memory_order_release);
      }
      store->PumpRetrains();
      std::this_thread::yield();
    }
  });

  std::vector<std::unordered_map<uint64_t, BitVector>> oracles(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(1000 + t);
      auto& oracle = oracles[t];
      auto pick_key = [&] {
        return t + kThreads * rng.NextBounded(keys_per_thread);
      };
      for (size_t op = 0; op < ops_per_thread && !failed.load(); ++op) {
        const double dice = rng.NextDouble();
        const uint64_t key = pick_key();
        if (dice < 0.50) {
          BitVector v = ds.items[rng.NextBounded(ds.items.size())];
          v.FlipRandomBits(rng.NextBounded(4), rng);
          if (!store->Put(key, v).ok()) failed.store(true);
          oracle[key] = std::move(v);
        } else if (dice < 0.62) {
          bool ok = store->Delete(key).ok();
          if (ok != (oracle.erase(key) > 0)) failed.store(true);
        } else if (dice < 0.90) {
          auto got = store->Get(key);
          auto it = oracle.find(key);
          if (got.ok() != (it != oracle.end())) failed.store(true);
          if (got.ok() && !(*got == it->second)) failed.store(true);
        } else {
          std::vector<std::pair<uint64_t, BitVector>> kvs;
          for (size_t i = 0; i < 6; ++i) {
            BitVector v = ds.items[rng.NextBounded(ds.items.size())];
            v.FlipRandomBits(rng.NextBounded(4), rng);
            kvs.emplace_back(pick_key(), std::move(v));
          }
          if (!store->MultiPut(kvs).ok()) failed.store(true);
          for (auto& [k, v] : kvs) oracle[k] = std::move(v);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  stop_monitor.store(true, std::memory_order_release);
  monitor.join();
  ASSERT_FALSE(failed.load()) << "a concurrent operation misbehaved";

  // Quiescent: every stripe agrees with its oracle.
  size_t live = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    for (const auto& [key, value] : oracles[t]) {
      auto got = store->Get(key);
      ASSERT_TRUE(got.ok()) << "thread " << t << " key " << key;
      ASSERT_EQ(*got, value) << "thread " << t << " key " << key;
    }
    live += oracles[t].size();
  }
  EXPECT_EQ(store->size(), live);
  CheckConservation(*store);

  auto snap = store->TakeSnapshot();
  EXPECT_EQ(snap.keys, live);
  EXPECT_GT(snap.engine.placements, 0u);
  EXPECT_GT(snap.total_pj, 0.0);
}

TEST(ShardedStress, SameShardHammerSerializesEngineInternals) {
  // Every thread targets keys of shard 0 only: all contention lands on
  // one mutex, one engine, one DAP — with background retraining swapping
  // models underneath. TSan verifies the shard mutex is sufficient to
  // serialize the engine's unsynchronized state (its documented
  // threading contract); the oracle check verifies nothing was lost.
  auto ds = ClusteredData(31);
  // A high per-cluster free floor (~the 128/4 average with two dozen
  // live keys) keeps the retrain trigger firing throughout the hammer.
  auto store = MakeStore(ds, kShards, /*pool_threads=*/2,
                         /*min_free_per_cluster=*/28);

  // Precompute a pool of keys owned by shard 0.
  std::vector<uint64_t> shard0_keys;
  for (uint64_t key = 0; shard0_keys.size() < 24; ++key) {
    if (store->ShardOf(key) == 0) shard0_keys.push_back(key);
  }

  constexpr size_t kHammerThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  // Stripe the shard-0 key pool across threads (disjoint, exact oracles).
  std::vector<std::unordered_map<uint64_t, BitVector>> oracles(
      kHammerThreads);
  for (size_t t = 0; t < kHammerThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(2000 + t);
      auto& oracle = oracles[t];
      for (size_t op = 0; op < 250 && !failed.load(); ++op) {
        uint64_t key =
            shard0_keys[t + kHammerThreads *
                                rng.NextBounded(shard0_keys.size() /
                                                kHammerThreads)];
        if (rng.NextDouble() < 0.7) {
          BitVector v = ds.items[rng.NextBounded(ds.items.size())];
          v.FlipRandomBits(rng.NextBounded(4), rng);
          if (!store->Put(key, v).ok()) failed.store(true);
          oracle[key] = std::move(v);
        } else {
          bool ok = store->Delete(key).ok();
          if (ok != (oracle.erase(key) > 0)) failed.store(true);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_FALSE(failed.load());
  for (size_t t = 0; t < kHammerThreads; ++t) {
    for (const auto& [key, value] : oracles[t]) {
      auto got = store->Get(key);
      ASSERT_TRUE(got.ok()) << "key " << key;
      ASSERT_EQ(*got, value) << "key " << key;
    }
  }
  CheckConservation(*store);
  // The hammer must actually have exercised retraining on shard 0 for
  // the regression to mean anything.
  EXPECT_GT(store->shard(0).engine().stats().background_retrains, 0u);
}

TEST(ShardedStress, SharedModelDivergesWithoutRaces) {
  // No lock covers the shared model: its readers hold different shard
  // locks. Every write to it would race, so a retrain must install a
  // fresh model instead of changing it, while the other shards keep
  // assigning through the shared one. Shards that cannot refine share
  // their bootstrap model, so incremental learning stays off. Each
  // shard's values shift at a different op, so shards diverge one by
  // one.
  auto ds = ClusteredData(43);
  workload::ProtoConfig pc;
  pc.dim = kBits;
  pc.num_classes = 4;
  pc.samples = kSegmentsPerShard;
  pc.noise = 0.03;
  pc.seed = 1043;
  const auto shifted = workload::MakeProtoDataset(pc);

  ShardedStoreConfig cfg;
  cfg.num_shards = kShards;
  cfg.shard.num_segments = kSegmentsPerShard;
  cfg.shard.segment_bits = kBits;
  cfg.shard.model.k = 4;
  cfg.shard.model.pretrain_epochs = 2;
  cfg.shard.model.finetune_rounds = 1;
  cfg.shard.auto_retrain = true;
  cfg.shard.background_retrain = true;
  cfg.shard.retrain.min_free_per_cluster = 2;
  cfg.shard.retrain.window = 20;
  cfg.shard.retrain.baseline_writes = 20;
  cfg.shard.retrain.degradation_factor = 1.4;
  cfg.pool_threads = kShards;
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  ASSERT_TRUE(store->Bootstrap().ok());
  for (size_t s = 1; s < kShards; ++s) {
    ASSERT_EQ(&store->shard(s).engine().clusterer(),
              &store->shard(0).engine().clusterer())
        << "shard " << s;
  }

  // Thread t drives only shard t's keys.
  constexpr uint64_t kKeysPerShard = 32;
  constexpr size_t kMaxOps = 50000;
  std::vector<std::vector<uint64_t>> keys(kShards);
  for (uint64_t key = 0;; ++key) {
    auto& mine = keys[store->ShardOf(key)];
    if (mine.size() < kKeysPerShard) mine.push_back(key);
    bool full = true;
    for (const auto& k : keys) full = full && k.size() == kKeysPerShard;
    if (full) break;
  }
  std::atomic<bool> failed{false};
  std::vector<std::unordered_map<uint64_t, BitVector>> oracles(kShards);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kShards; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(4000 + t);
      auto& oracle = oracles[t];
      const size_t shift_at = 60 * (t + 1);
      const PlacementEngine& engine = store->shard(t).engine();
      // 400 ops, then on until the shard has installed the shadow its
      // shift launched (only this thread drives the shard).
      for (size_t op = 0; op < kMaxOps && !failed.load(); ++op) {
        if (op >= 400 && engine.model_generation() > 0) break;
        const uint64_t key = keys[t][rng.NextBounded(kKeysPerShard)];
        const auto& src = op < shift_at ? ds : shifted;
        BitVector v = src.items[rng.NextBounded(src.items.size())];
        v.FlipRandomBits(rng.NextBounded(4), rng);
        if (!store->Put(key, v).ok()) failed.store(true);
        oracle[key] = std::move(v);
        if (op % 5 == 4) {
          auto got = store->Get(key);
          if (!got.ok() || !(*got == oracle[key])) failed.store(true);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_FALSE(failed.load()) << "an operation misbehaved";
  for (size_t t = 0; t < kShards; ++t) {
    for (const auto& [key, value] : oracles[t]) {
      auto got = store->Get(key);
      ASSERT_TRUE(got.ok()) << "key " << key;
      ASSERT_EQ(*got, value) << "key " << key;
    }
  }
  CheckConservation(*store);
  // The case means something only if shards installed models of their
  // own while the others served.
  size_t fresh_models = 0;
  for (size_t s = 0; s < kShards; ++s) {
    if (store->shard(s).engine().model_generation() > 0) ++fresh_models;
  }
  EXPECT_GT(fresh_models, 0u);
}

TEST(ShardedStress, SteadyStatePutTakesNoSharedLocks) {
  // The mutex-acquisition assertion for the §13 contract: once warm, the
  // PUT/GET/DELETE/MultiPut path must acquire NO shard-external lock.
  // Every instrumented shared-lock site (ThreadPool::Submit's queue
  // mutex, the fault injector) bumps a thread-local counter
  // (common/lock_audit.h); a steady-state window must leave it
  // untouched. pool_threads > 0 on purpose: the lanes exist, and the
  // test proves steady-state operations never enqueue on them
  // (inference stays below the kernels' parallel threshold).
  auto ds = ClusteredData(41);
  ShardedStoreConfig cfg;
  cfg.num_shards = kShards;
  cfg.shard.num_segments = kSegmentsPerShard;
  cfg.shard.segment_bits = kBits;
  cfg.shard.model.k = 4;
  cfg.shard.model.pretrain_epochs = 2;
  cfg.shard.model.finetune_rounds = 1;
  // Steady state by construction: no retrain epochs inside the window
  // (a retrain is background/maintenance work, not the steady path).
  cfg.shard.auto_retrain = false;
  cfg.shard.background_retrain = false;
  cfg.pool_threads = 4;
  // An attached-but-unarmed fault injector (no stuck cells, zero tear /
  // disturb probability) must ride along for free: its unarmed fast
  // path skips the injector mutex, so the audit below still sees zero.
  nvm::FaultInjector injector{nvm::FaultConfig{}};
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->device().AttachFaultInjector(&injector);
  store->Seed(ds);
  ASSERT_TRUE(store->Bootstrap().ok());  // Training MAY submit to lanes.

  // Warm up: every key placed once, so window puts are re-placements.
  constexpr uint64_t kKeys = 48;
  for (uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(store->Put(key, ds.items[key % ds.items.size()]).ok());
  }

  auto run_window = [&](uint64_t seed) {
    Rng rng(seed);
    for (size_t op = 0; op < 400; ++op) {
      const double dice = rng.NextDouble();
      const uint64_t key = rng.NextBounded(kKeys);
      if (dice < 0.45) {
        BitVector v = ds.items[rng.NextBounded(ds.items.size())];
        v.FlipRandomBits(rng.NextBounded(4), rng);
        ASSERT_TRUE(store->Put(key, v).ok());
      } else if (dice < 0.60) {
        (void)store->Delete(key);
      } else if (dice < 0.90) {
        (void)store->Get(key);
      } else {
        std::vector<std::pair<uint64_t, BitVector>> kvs;
        for (size_t i = 0; i < 6; ++i) {
          BitVector v = ds.items[rng.NextBounded(ds.items.size())];
          v.FlipRandomBits(rng.NextBounded(4), rng);
          kvs.emplace_back(rng.NextBounded(kKeys), std::move(v));
        }
        ASSERT_TRUE(store->MultiPut(kvs).ok());
      }
    }
  };

  // Single-threaded steady window: zero shared-lock acquisitions.
  const uint64_t before = debug::SharedLockAcquisitions();
  run_window(51);
  EXPECT_EQ(debug::SharedLockAcquisitions(), before)
      << "a steady-state operation took a shard-external lock";

  // Multi-threaded window: every client thread's own (thread-local)
  // counter must stay zero, concurrently with the other clients.
  std::atomic<uint64_t> total_shared_locks{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      run_window(60 + t);
      total_shared_locks.fetch_add(debug::SharedLockAcquisitions(),
                                   std::memory_order_relaxed);
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(total_shared_locks.load(), 0u)
      << "a concurrent steady-state operation took a shard-external lock";
}

TEST(ShardedStress, FaultInjectionWithBackgroundScrubKeepsOraclesExact) {
  // The integrity-hardening soak: 6 client threads run the mixed
  // workload on disjoint stripes while the device tears writes and
  // sticks cells (write-verify + spare repair + re-placement absorb
  // them) AND the background scrubber sweeps segment/journal checksums
  // from the shared pool. TSan checks the injector's internal lock, the
  // thread-local device buffers and the scrub/client interleavings; the
  // oracles check no operation result was corrupted. A quiescent
  // bit-rot phase then proves the scrubber repairs silent damage from
  // the journal's redundant copy.
  auto ds = ClusteredData(37);
  nvm::FaultConfig fc;
  fc.seed = 0xD15EA5Eull;
  fc.initial_stuck_fraction = 0.01;
  fc.torn_write_probability = 0.05;
  fc.spare_cells_per_segment = 5;  // Tight budget: some repairs denied.
  nvm::FaultInjector injector(fc);

  ShardedStoreConfig cfg;
  cfg.num_shards = kShards;
  cfg.shard.num_segments = kSegmentsPerShard;
  cfg.shard.segment_bits = kBits;
  cfg.shard.model.k = 4;
  cfg.shard.model.pretrain_epochs = 2;
  cfg.shard.model.finetune_rounds = 1;
  cfg.shard.auto_retrain = true;
  cfg.shard.background_retrain = true;
  cfg.shard.retrain.min_free_per_cluster = 8;
  cfg.shard.verify_writes = true;
  cfg.shard.integrity_tracking = true;
  cfg.pool_threads = 2;
  cfg.journal = true;
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->device().AttachFaultInjector(&injector);
  store->Seed(ds);
  ASSERT_TRUE(store->Bootstrap().ok());
  ASSERT_TRUE(store->StartBackgroundScrub());

  constexpr size_t kFaultThreads = 6;
  const uint64_t keys_per_thread = 24;
  std::atomic<bool> failed{false};
  std::vector<std::unordered_map<uint64_t, BitVector>> oracles(
      kFaultThreads);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kFaultThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(3000 + t);
      auto& oracle = oracles[t];
      auto pick_key = [&] {
        return t + kFaultThreads * rng.NextBounded(keys_per_thread);
      };
      for (size_t op = 0; op < 250 && !failed.load(); ++op) {
        const double dice = rng.NextDouble();
        const uint64_t key = pick_key();
        if (dice < 0.55) {
          BitVector v = ds.items[rng.NextBounded(ds.items.size())];
          v.FlipRandomBits(rng.NextBounded(4), rng);
          if (!store->Put(key, v).ok()) failed.store(true);
          oracle[key] = std::move(v);
        } else if (dice < 0.70) {
          bool ok = store->Delete(key).ok();
          if (ok != (oracle.erase(key) > 0)) failed.store(true);
        } else {
          auto got = store->Get(key);
          auto it = oracle.find(key);
          if (got.ok() != (it != oracle.end())) failed.store(true);
          if (got.ok() && !(*got == it->second)) failed.store(true);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_FALSE(failed.load()) << "an operation misbehaved under faults";
  store->StopBackgroundScrub();

  // Quiescent: every surviving key reads back exactly despite torn
  // writes, stuck cells and concurrent scrubbing.
  for (size_t t = 0; t < kFaultThreads; ++t) {
    for (const auto& [key, value] : oracles[t]) {
      auto got = store->Get(key);
      ASSERT_TRUE(got.ok()) << "thread " << t << " key " << key;
      ASSERT_EQ(*got, value) << "thread " << t << " key " << key;
    }
  }
  // Conservation, quarantine-aware: addresses are free, live, or dropped
  // as poisoned (re-placement never hands out a quarantined segment).
  for (size_t s = 0; s < store->num_shards(); ++s) {
    E2KvStore& shard = store->shard(s);
    const size_t free_live = shard.engine().pool().TotalFree() + shard.size();
    EXPECT_LE(free_live, kSegmentsPerShard) << "shard " << s;
    EXPECT_GE(free_live + shard.controller().quarantined_count(),
              kSegmentsPerShard)
        << "shard " << s;
  }
  // The fault machinery and the scrubber both demonstrably ran.
  auto stats = injector.stats();
  EXPECT_GT(stats.torn_writes, 0u);
  EXPECT_GT(stats.stuck_clamps, 0u);
  auto scrub = store->TakeScrubStats();
  EXPECT_GT(scrub.segments_scanned, 0u);

  // Silent bit-rot phase: flip cells under three live keys, sweep every
  // shard once, and require the journal-backed repair to restore them.
  std::vector<uint64_t> victims;
  for (size_t t = 0; t < kFaultThreads && victims.size() < 3; ++t) {
    if (!oracles[t].empty()) victims.push_back(oracles[t].begin()->first);
  }
  ASSERT_FALSE(victims.empty());
  for (uint64_t key : victims) {
    const size_t s = store->ShardOf(key);
    const uint64_t addr = *store->shard(s).tree().Get(key);
    const size_t off =
        static_cast<size_t>(addr - store->shard(s).first_segment());
    store->InjectBitRot(s, off, 7);
    store->InjectBitRot(s, off, 133);
  }
  const uint64_t repaired_before = store->TakeScrubStats().repaired;
  for (size_t s = 0; s < store->num_shards(); ++s) {
    store->ScrubShard(s, kSegmentsPerShard);
  }
  EXPECT_GT(store->TakeScrubStats().repaired, repaired_before);
  for (uint64_t key : victims) {
    for (size_t t = 0; t < kFaultThreads; ++t) {
      auto it = oracles[t].find(key);
      if (it == oracles[t].end()) continue;
      auto got = store->Get(key);
      ASSERT_TRUE(got.ok()) << "victim " << key;
      ASSERT_EQ(*got, it->second) << "victim " << key;
    }
  }
  store->device().AttachFaultInjector(nullptr);
}

}  // namespace
}  // namespace e2nvm::core
