// ShardedStore unit tests: the shards=1 determinism contract (bit-identical
// placements, flips and retrain schedule vs a plain E2KvStore), one shared
// bootstrap model and copied free lists for shards seeded alike (each
// shard still equal to a standalone store, through retrains and refine
// steps), the same models and placements at any pool_threads, merged
// stats across shards, shard-range containment, construction validation,
// the ShardJournal append/replay protocol, and that a batch applies
// exactly the rows its journal took and a refused delete leaves none.

#include <cstring>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/e2_model.h"
#include "core/shard_journal.h"
#include "core/sharded_store.h"
#include "core/store.h"
#include "workload/datasets.h"

namespace e2nvm::core {
namespace {

constexpr size_t kSegments = 128;  // Per shard.
constexpr size_t kBits = 256;
constexpr uint64_t kKeys = 48;

workload::BitDataset ClusteredData(uint64_t seed) {
  workload::ProtoConfig cfg;
  cfg.dim = kBits;
  cfg.num_classes = 4;
  cfg.samples = kSegments + 64;
  cfg.noise = 0.03;
  cfg.seed = seed;
  return workload::MakeProtoDataset(cfg);
}

StoreConfig ShardConfig(bool background_retrain = false) {
  StoreConfig sc;
  sc.num_segments = kSegments;
  sc.segment_bits = kBits;
  sc.model.k = 4;
  sc.model.pretrain_epochs = 2;
  sc.model.finetune_rounds = 1;
  sc.auto_retrain = true;
  sc.background_retrain = background_retrain;
  sc.retrain.min_free_per_cluster = 8;
  return sc;
}

std::unique_ptr<E2KvStore> MakePlainStore(const workload::BitDataset& ds,
                                          bool background_retrain = false) {
  auto store_or = E2KvStore::Create(ShardConfig(background_retrain));
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

std::unique_ptr<ShardedStore> MakeSharded(const workload::BitDataset& ds,
                                          size_t num_shards,
                                          bool background_retrain = false,
                                          bool journal = false) {
  ShardedStoreConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard = ShardConfig(background_retrain);
  cfg.journal = journal;
  auto store_or = ShardedStore::Create(cfg);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

TEST(ShardedStore, OneShardIsBitIdenticalToPlainStore) {
  for (uint64_t seed : {2u, 11u}) {
    auto ds = ClusteredData(seed);
    auto plain = MakePlainStore(ds);
    auto sharded = MakeSharded(ds, /*num_shards=*/1);
    for (uint64_t i = 0; i < 300; ++i) {
      const auto& v = ds.items[i % ds.items.size()];
      ASSERT_TRUE(plain->Put(i % kKeys, v).ok()) << "seed " << seed;
      ASSERT_TRUE(sharded->Put(i % kKeys, v).ok()) << "seed " << seed;
    }
    E2KvStore& shard = sharded->shard(0);
    // Same final address for every key...
    for (uint64_t key = 0; key < kKeys; ++key) {
      EXPECT_EQ(plain->tree().Get(key), shard.tree().Get(key))
          << "seed " << seed << " key " << key;
    }
    // ...the same device activity bit for bit...
    EXPECT_EQ(plain->device().stats().writes,
              sharded->device().stats().writes);
    EXPECT_EQ(plain->device().stats().data_bits_flipped,
              sharded->device().stats().data_bits_flipped);
    EXPECT_EQ(plain->device().stats().dirty_lines,
              sharded->device().stats().dirty_lines);
    // ...and the same engine schedule (placements, fallbacks, retrains).
    EXPECT_EQ(plain->engine().stats().placements,
              shard.engine().stats().placements);
    EXPECT_EQ(plain->engine().stats().fallback_placements,
              shard.engine().stats().fallback_placements);
    EXPECT_EQ(plain->engine().stats().retrains,
              shard.engine().stats().retrains);
    EXPECT_GT(shard.engine().stats().retrains, 0u) << "seed " << seed;
  }
}

TEST(ShardedStore, OneShardBackgroundRetrainScheduleMatchesPlainStore) {
  // Drain each in-flight shadow training deterministically after every op
  // (the fastpath_equivalence_test pattern) so swaps land at the same
  // operation index on both sides.
  auto ds = ClusteredData(17);
  auto plain = MakePlainStore(ds, /*background_retrain=*/true);
  auto sharded = MakeSharded(ds, /*num_shards=*/1,
                             /*background_retrain=*/true);
  auto drain = [](E2KvStore& s) {
    while (s.engine().RetrainInFlight()) {
    }
    s.engine().PumpBackgroundRetrain();
  };
  for (uint64_t i = 0; i < 300; ++i) {
    const auto& v = ds.items[i % ds.items.size()];
    ASSERT_TRUE(plain->Put(i % kKeys, v).ok());
    ASSERT_TRUE(sharded->Put(i % kKeys, v).ok());
    drain(*plain);
    drain(sharded->shard(0));
    ASSERT_EQ(plain->engine().model_generation(),
              sharded->shard(0).engine().model_generation())
        << "op " << i;
  }
  EXPECT_GT(sharded->shard(0).engine().model_generation(), 0u);
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(plain->tree().Get(key), sharded->shard(0).tree().Get(key));
  }
  EXPECT_EQ(plain->device().stats().data_bits_flipped,
            sharded->device().stats().data_bits_flipped);
}

/// Cluster ids `model` assigns to the rows of `ds` that no shard was
/// seeded with.
std::vector<size_t> HeldOutIds(const placement::ContentClusterer& model,
                               const workload::BitDataset& ds) {
  ml::InferenceScratch scratch;
  scratch.in.EnsureShape(ds.items.size() - kSegments, kBits);
  for (size_t i = kSegments; i < ds.items.size(); ++i) {
    ds.items[i].AppendFloatsTo(scratch.in.Row(i - kSegments));
  }
  model.AssignScratch(&scratch);
  return scratch.clusters;
}

TEST(ShardedStore, ShardsSeededAlikeServeOneModel) {
  // Shards that cannot refine never change a model in place, so every
  // shard seeded alike serves the instance shard 0 trained.
  auto ds = ClusteredData(3);
  for (size_t num_shards : {2u, 4u}) {
    auto sharded = MakeSharded(ds, num_shards);
    const placement::ContentClusterer* first =
        &sharded->shard(0).engine().clusterer();
    for (size_t s = 0; s < num_shards; ++s) {
      EXPECT_EQ(&sharded->shard(s).engine().clusterer(), first)
          << num_shards << " shards, shard " << s;
    }
  }
}

TEST(ShardedStore, FourTwinsBootstrapOnOneVae) {
  // Only a training builds a VAE: the four shards hold none before
  // Bootstrap, which trains shard 0 alone, and the three twins serve that
  // one model. The training's workspace is gone once Bootstrap returns.
  auto ds = ClusteredData(3);
  ShardedStoreConfig cfg;
  cfg.num_shards = 4;
  cfg.shard = ShardConfig();
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto sharded = std::move(*store_or);
  auto model = [&](size_t s) -> const E2Model& {
    return dynamic_cast<const E2Model&>(
        sharded->shard(s).engine().clusterer());
  };
  for (size_t s = 0; s < cfg.num_shards; ++s) {
    EXPECT_FALSE(model(s).has_vae()) << "shard " << s;
  }
  sharded->Seed(ds);
  ASSERT_TRUE(sharded->Bootstrap().ok());
  ASSERT_TRUE(model(0).has_vae());
  EXPECT_FALSE(model(0).vae().has_workspace());
  for (size_t s = 1; s < cfg.num_shards; ++s) {
    EXPECT_EQ(&model(s), &model(0)) << "shard " << s;
  }
}

TEST(ShardedStore, ShardsThatCanRefineEachHoldACopy) {
  // A refine step changes its model in place, so with incremental
  // learning and auto-retrain on each shard holds its own copy of the
  // model shard 0 trained, from bootstrap on.
  auto ds = ClusteredData(3);
  StoreConfig sc = ShardConfig();
  sc.incremental_learning = true;
  ShardedStoreConfig cfg;
  cfg.num_shards = 4;
  cfg.shard = sc;
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto sharded = std::move(*store_or);
  sharded->Seed(ds);
  ASSERT_TRUE(sharded->Bootstrap().ok());
  const placement::ContentClusterer& first =
      sharded->shard(0).engine().clusterer();
  const std::vector<size_t> want = HeldOutIds(first, ds);
  for (size_t s = 1; s < cfg.num_shards; ++s) {
    const placement::ContentClusterer& model =
        sharded->shard(s).engine().clusterer();
    EXPECT_NE(&model, &first) << "shard " << s;
    EXPECT_EQ(HeldOutIds(model, ds), want) << "shard " << s;
  }
}

TEST(ShardedStore, RetrainOnOneTwinLeavesTheOtherUntouched) {
  // Twins that cannot refine serve one model; a synchronous retrain on
  // one of them serves a fresh model there and leaves the shared one,
  // still serving the other twin, as it was.
  auto ds = ClusteredData(3);
  auto shifted = ClusteredData(1003);
  auto sharded = MakeSharded(ds, /*num_shards=*/2);
  PlacementEngine& e0 = sharded->shard(0).engine();
  PlacementEngine& e1 = sharded->shard(1).engine();
  const placement::ContentClusterer* shared = &e0.clusterer();
  ASSERT_EQ(&e1.clusterer(), shared);
  auto encoder = [](const PlacementEngine& e) {
    return dynamic_cast<const E2Model&>(e.clusterer())
        .vae()
        .encoder_weights()
        .data();
  };
  const auto weights = encoder(e0);
  const std::vector<size_t> ids = HeldOutIds(*shared, ds);
  // Shard 1 trains on a smaller, shifted free set than its bootstrap's.
  for (uint64_t key = 0; key < 12; ++key) {
    if (sharded->ShardOf(key) == 1) {
      ASSERT_TRUE(sharded->Put(key, shifted.items[key]).ok());
    }
  }
  ASSERT_EQ(&e1.clusterer(), shared);
  ASSERT_TRUE(e1.Retrain().ok());
  EXPECT_NE(&e1.clusterer(), shared);
  EXPECT_NE(encoder(e1), weights);
  EXPECT_EQ(&e0.clusterer(), shared);
  EXPECT_EQ(encoder(e0), weights);
  EXPECT_EQ(HeldOutIds(e0.clusterer(), ds), ids);
}

TEST(ShardedStore, ShardWithADifferentImageTrainsItsOwnModel) {
  auto ds = ClusteredData(3);
  ShardedStoreConfig cfg;
  cfg.num_shards = 3;
  cfg.shard = ShardConfig();
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto sharded = std::move(*store_or);
  sharded->Seed(ds);
  sharded->InjectBitRot(/*s=*/1, /*seg_off=*/5, /*bit=*/17);
  ASSERT_TRUE(sharded->Bootstrap().ok());
  PlacementEngine& e0 = sharded->shard(0).engine();
  PlacementEngine& e1 = sharded->shard(1).engine();
  PlacementEngine& e2 = sharded->shard(2).engine();
  EXPECT_NE(&e1.clusterer(), &e0.clusterer());
  EXPECT_EQ(&e2.clusterer(), &e0.clusterer());
  // The adopting shard charged the training it did not run.
  EXPECT_EQ(e2.stats().train_flops, e0.stats().train_flops);
}

TEST(ShardedStore, TwinsCopyTheFreeListsAStandaloneStoreBuilds) {
  // A shard that adopts an earlier shard's model copies its free lists
  // instead of classifying its segments: each shard's lists must hold
  // exactly the addresses, in exactly the order, of a standalone store
  // that trained and classified the same image.
  auto ds = ClusteredData(5);
  auto alone = MakePlainStore(ds);
  const DynamicAddressPool& want = alone->engine().pool();
  for (size_t num_shards : {2u, 4u}) {
    auto sharded = MakeSharded(ds, num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      SCOPED_TRACE(testing::Message()
                   << num_shards << " shards, shard " << s);
      const DynamicAddressPool& got =
          sharded->shard(s).engine().pool();
      const uint64_t first = sharded->shard(s).first_segment();
      ASSERT_EQ(got.num_clusters(), want.num_clusters());
      EXPECT_EQ(got.TotalFree(), want.TotalFree());
      for (size_t c = 0; c < want.num_clusters(); ++c) {
        const FreeList& g = got.free_list(c);
        const FreeList& w = want.free_list(c);
        ASSERT_EQ(g.size(), w.size()) << "cluster " << c;
        for (size_t i = 0; i < w.size(); ++i) {
          EXPECT_EQ(g[i] - first, w[i]) << "cluster " << c << " entry " << i;
        }
      }
    }
  }
}

TEST(ShardedStore, BootstrapFromRefusesASourceThatHasServed) {
  // A twin copies its source's free lists, so the source's DAP must still
  // be the one its bootstrap built.
  auto ds = ClusteredData(5);
  auto fresh = MakePlainStore(ds);
  auto served = MakePlainStore(ds);
  ASSERT_TRUE(served->Put(1, ds.items[3]).ok());
  auto twin_or = E2KvStore::Create(ShardConfig());
  ASSERT_TRUE(twin_or.ok());
  auto twin = std::move(*twin_or);
  twin->Seed(ds);
  EXPECT_EQ(twin->BootstrapFrom(*served).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(twin->Put(1, ds.items[3]).ok());  // Still not bootstrapped.
  ASSERT_TRUE(twin->BootstrapFrom(*fresh).ok());
  EXPECT_TRUE(twin->Put(1, ds.items[3]).ok());
}

/// How the equivalence cases below retrain: off, synchronously, in the
/// background (drained after every operation), or by §16 refine steps.
struct LearningMode {
  const char* name;
  bool auto_retrain;
  bool background;
  bool incremental;
};

StoreConfig ModeConfig(const LearningMode& mode) {
  StoreConfig sc = ShardConfig(mode.background);
  sc.auto_retrain = mode.auto_retrain;
  // A short efficiency window, so the value shift halfway through the
  // stream fires the efficiency trigger within a few dozen writes per
  // shard, and a low capacity floor, so it is mostly that trigger.
  sc.retrain.min_free_per_cluster = 2;
  sc.retrain.window = 20;
  sc.retrain.baseline_writes = 20;
  sc.retrain.degradation_factor = 1.4;
  if (mode.incremental) {
    // Refine steps answer the shift; they never escalate.
    sc.incremental_learning = true;
    sc.replay_ring_capacity = 64;
    sc.refine_batch = 8;
    sc.retrain.refine_interval = 10;
    sc.retrain.max_refine_rounds = 1000;
  }
  return sc;
}

/// Waits out and adopts a background retrain, so swaps land at the same
/// operation on both sides.
void Drain(PlacementEngine& engine) {
  while (engine.RetrainInFlight()) {
  }
  engine.PumpBackgroundRetrain();
}

TEST(ShardedStore, EachShardMatchesAStandaloneStore) {
  // The shards adopt one bootstrap model (shared, or a copy each when
  // they can refine); each must still behave exactly like a standalone
  // store seeded with the same dataset and fed that shard's keys,
  // through retrains and refine steps.
  constexpr size_t kShards = 4;
  constexpr uint64_t kManyKeys = 160;
  constexpr uint64_t kOps = 800;
  const LearningMode modes[] = {{"off", false, false, false},
                                {"sync", true, false, false},
                                {"background", true, true, false},
                                {"incremental", true, false, true}};
  auto ds = ClusteredData(2);
  auto shifted = ClusteredData(1002);
  for (const LearningMode& mode : modes) {
    SCOPED_TRACE(mode.name);
    const StoreConfig sc = ModeConfig(mode);
    ShardedStoreConfig cfg;
    cfg.num_shards = kShards;
    cfg.shard = sc;
    auto sharded_or = ShardedStore::Create(cfg);
    ASSERT_TRUE(sharded_or.ok());
    auto sharded = std::move(*sharded_or);
    sharded->Seed(ds);
    ASSERT_TRUE(sharded->Bootstrap().ok());
    std::vector<std::unique_ptr<E2KvStore>> alone;
    for (size_t s = 0; s < kShards; ++s) {
      auto store_or = E2KvStore::Create(sc);
      ASSERT_TRUE(store_or.ok());
      alone.push_back(std::move(*store_or));
      alone[s]->Seed(ds);
      ASSERT_TRUE(alone[s]->Bootstrap().ok());
    }

    // Updates, with a delete every seventh op; the value classes shift
    // halfway, so the retraining modes retrain or refine mid-stream.
    std::map<uint64_t, BitVector> oracle;
    for (uint64_t i = 0; i < kOps; ++i) {
      const uint64_t key = (i * 37) % kManyKeys;
      const size_t s = sharded->ShardOf(key);
      if (i % 7 == 6) {
        const bool live = oracle.erase(key) > 0;
        EXPECT_EQ(sharded->Delete(key).ok(), live) << "op " << i;
        EXPECT_EQ(alone[s]->Delete(key).ok(), live) << "op " << i;
      } else {
        const workload::BitDataset& src = i < kOps / 2 ? ds : shifted;
        const BitVector& v = src.items[i % src.items.size()];
        ASSERT_TRUE(sharded->Put(key, v).ok()) << "op " << i;
        ASSERT_TRUE(alone[s]->Put(key, v).ok()) << "op " << i;
        oracle[key] = v;
      }
      if (mode.background) {
        Drain(sharded->shard(s).engine());
        Drain(alone[s]->engine());
      }
    }

    double pj[nvm::kNumEnergyDomains] = {};
    double now_ns = 0;
    uint64_t writes = 0, flips = 0;
    std::set<const placement::ContentClusterer*> models;
    uint64_t refined_only = 0;  // Shards that refined but never retrained.
    for (size_t s = 0; s < kShards; ++s) {
      E2KvStore& shard = sharded->shard(s);
      EXPECT_EQ(shard.size(), alone[s]->size()) << "shard " << s;
      shard.tree().ForEach([&](uint64_t key, uint64_t addr) {
        EXPECT_EQ(addr - shard.first_segment(), alone[s]->tree().Get(key))
            << "shard " << s << " key " << key;
        auto got = sharded->Get(key);
        auto want = alone[s]->Get(key);
        ASSERT_TRUE(got.ok() && want.ok()) << "key " << key;
        EXPECT_EQ(*got, *want) << "key " << key;
        EXPECT_EQ(*got, oracle.at(key)) << "key " << key;
      });
      EXPECT_TRUE(shard.engine().stats() == alone[s]->engine().stats())
          << "shard " << s;
      EXPECT_EQ(shard.engine().model_generation(),
                alone[s]->engine().model_generation())
          << "shard " << s;
      const nvm::EnergyTotals e = alone[s]->meter().Snapshot();
      for (int d = 0; d < nvm::kNumEnergyDomains; ++d) pj[d] += e.pj[d];
      now_ns += e.now_ns;
      writes += alone[s]->device().stats().writes;
      flips += alone[s]->device().stats().data_bits_flipped;
      const EngineStats& st = shard.engine().stats();
      models.insert(&shard.engine().clusterer());
      if (st.refine_steps > 0 && st.retrains == 0) ++refined_only;
    }
    // Lane s is shard s's: the merged totals sum the standalone ones in
    // shard order, bit for bit.
    const nvm::EnergyTotals merged = sharded->meter().Snapshot();
    for (int d = 0; d < nvm::kNumEnergyDomains; ++d) {
      EXPECT_EQ(merged.pj[d], pj[d]) << "domain " << d;
    }
    EXPECT_EQ(merged.now_ns, now_ns);
    EXPECT_EQ(sharded->device().stats().writes, writes);
    EXPECT_EQ(sharded->device().stats().data_bits_flipped, flips);

    // Without retraining the shards still serve one model; a retrain
    // serves a fresh one, and shards that can refine held copies from
    // bootstrap on.
    const EngineStats all = sharded->TakeSnapshot().engine;
    if (!mode.auto_retrain) {
      EXPECT_EQ(models.size(), 1u);
      EXPECT_EQ(all.retrains, 0u);
    } else if (mode.incremental) {
      EXPECT_EQ(models.size(), kShards);
      EXPECT_GT(refined_only, 0u);
    } else {
      EXPECT_GT(all.retrains, 0u);
      EXPECT_GT(models.size(), 1u);
    }
  }
}

/// Bitwise equality of two E2Models' trained state: every VAE parameter
/// block (values, gradients, Adam moments), the centroids and the
/// learning curves.
void ExpectSameModel(const placement::ContentClusterer& a,
                     const placement::ContentClusterer& b) {
  const auto* ma = dynamic_cast<const E2Model*>(&a);
  const auto* mb = dynamic_cast<const E2Model*>(&b);
  ASSERT_TRUE(ma != nullptr && mb != nullptr);
  auto same = [](const ml::Matrix& x, const ml::Matrix& y) {
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data().data(), y.data().data(),
                       x.size() * sizeof(float)) == 0;
  };
  const auto pa = ma->vae().Params();
  const auto pb = mb->vae().Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(same(pa[i]->value, pb[i]->value) &&
                same(pa[i]->grad, pb[i]->grad) && same(pa[i]->m, pb[i]->m) &&
                same(pa[i]->v, pb[i]->v))
        << "param block " << i;
  }
  EXPECT_TRUE(same(ma->kmeans().centroids(), mb->kmeans().centroids()));
  const ml::TrainHistory& ha = ma->history();
  const ml::TrainHistory& hb = mb->history();
  ASSERT_EQ(ha.train_loss.size(), hb.train_loss.size());
  ASSERT_EQ(ha.val_loss.size(), hb.val_loss.size());
  EXPECT_EQ(std::memcmp(ha.train_loss.data(), hb.train_loss.data(),
                        ha.train_loss.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(ha.val_loss.data(), hb.val_loss.data(),
                        ha.val_loss.size() * sizeof(double)),
            0);
}

TEST(ShardedStore, PoolThreadsChangeNoBit) {
  // With pool_threads 4 each shard bootstraps on its two-worker lane and
  // trains its shadows on a lane worker; with 0 it bootstraps on the
  // calling thread and trains shadows on a dedicated thread. A pool
  // changes only where training runs, so both stores must hold the same
  // models and make the same placements.
  constexpr size_t kShards = 2;
  constexpr uint64_t kManyKeys = 96;
  constexpr uint64_t kOps = 600;
  auto ds = ClusteredData(2);
  auto shifted = ClusteredData(1002);
  std::unique_ptr<ShardedStore> stores[2];
  for (size_t i = 0; i < 2; ++i) {
    ShardedStoreConfig cfg;
    cfg.num_shards = kShards;
    cfg.shard = ModeConfig({"background", true, true, false});
    cfg.pool_threads = i == 0 ? 0 : 4;
    auto store_or = ShardedStore::Create(cfg);
    ASSERT_TRUE(store_or.ok());
    stores[i] = std::move(*store_or);
    stores[i]->Seed(ds);
    ASSERT_TRUE(stores[i]->Bootstrap().ok());
  }
  ASSERT_NE(stores[1]->shard_lane(0), nullptr);
  auto expect_same = [&] {
    for (size_t s = 0; s < kShards; ++s) {
      SCOPED_TRACE(s);
      const PlacementEngine& a = stores[0]->shard(s).engine();
      const PlacementEngine& b = stores[1]->shard(s).engine();
      ExpectSameModel(a.clusterer(), b.clusterer());
      for (size_t c = 0; c < a.pool().num_clusters(); ++c) {
        const FreeList& la = a.pool().free_list(c);
        const FreeList& lb = b.pool().free_list(c);
        ASSERT_EQ(la.size(), lb.size()) << "cluster " << c;
        for (size_t j = 0; j < la.size(); ++j) {
          EXPECT_EQ(la[j], lb[j]) << "cluster " << c << " slot " << j;
        }
      }
      EXPECT_TRUE(a.stats() == b.stats());
      EXPECT_EQ(a.model_generation(), b.model_generation());
    }
    const nvm::EnergyTotals ea = stores[0]->meter().Snapshot();
    const nvm::EnergyTotals eb = stores[1]->meter().Snapshot();
    EXPECT_EQ(std::memcmp(ea.pj, eb.pj, sizeof(ea.pj)), 0);
    EXPECT_EQ(ea.now_ns, eb.now_ns);
    const nvm::DeviceStats da = stores[0]->device().stats();
    const nvm::DeviceStats db = stores[1]->device().stats();
    EXPECT_EQ(da.writes, db.writes);
    EXPECT_EQ(da.data_bits_flipped, db.data_bits_flipped);
    EXPECT_EQ(da.aux_bits_flipped, db.aux_bits_flipped);
    EXPECT_EQ(da.set_transitions, db.set_transitions);
    EXPECT_EQ(da.reset_transitions, db.reset_transitions);
    EXPECT_EQ(da.dirty_lines, db.dirty_lines);
  };
  {
    SCOPED_TRACE("after bootstrap");
    expect_same();
  }

  // Updates with a delete every seventh op; the value classes shift
  // halfway, so every shard launches background retrains, which both
  // stores wait out and adopt at the same op.
  for (uint64_t i = 0; i < kOps; ++i) {
    const uint64_t key = (i * 37) % kManyKeys;
    const size_t s = stores[0]->ShardOf(key);
    for (auto& store : stores) {
      if (i % 7 == 6) {
        (void)store->Delete(key);
      } else {
        const workload::BitDataset& src = i < kOps / 2 ? ds : shifted;
        ASSERT_TRUE(store->Put(key, src.items[i % src.items.size()]).ok())
            << "op " << i;
      }
      Drain(store->shard(s).engine());
    }
  }
  {
    SCOPED_TRACE("after the stream");
    expect_same();
  }
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(stores[1]->shard(s).engine().model_generation(), 0u)
        << "shard " << s;
  }
}

TEST(ShardedStore, SnapshotMergesEngineStatsAcrossShards) {
  auto ds = ClusteredData(5);
  auto sharded = MakeSharded(ds, /*num_shards=*/4);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(sharded->Put(i % 96, ds.items[i % ds.items.size()]).ok());
  }
  auto snap = sharded->TakeSnapshot();
  uint64_t placements = 0, releases = 0;
  size_t keys = 0;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    placements += sharded->shard(s).engine().stats().placements;
    releases += sharded->shard(s).engine().stats().releases;
    keys += sharded->shard(s).size();
  }
  EXPECT_EQ(snap.engine.placements, placements);
  EXPECT_EQ(snap.engine.releases, releases);
  EXPECT_EQ(snap.engine.placements, 200u);
  EXPECT_EQ(snap.keys, keys);
  EXPECT_EQ(snap.keys, sharded->size());
  EXPECT_EQ(snap.device.writes, sharded->device().stats().writes);
  EXPECT_GT(snap.total_pj, 0.0);
}

TEST(ShardedStore, ShardsPlaceOnlyInsideTheirSegmentRange) {
  auto ds = ClusteredData(7);
  auto sharded = MakeSharded(ds, /*num_shards=*/4);
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(sharded->Put(i % 96, ds.items[i % ds.items.size()]).ok());
  }
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    const uint64_t first = sharded->shard(s).first_segment();
    EXPECT_EQ(first, s * kSegments);
    sharded->shard(s).tree().ForEach([&](uint64_t key, uint64_t addr) {
      EXPECT_EQ(sharded->ShardOf(key), s) << "key " << key;
      EXPECT_GE(addr, first) << "key " << key;
      EXPECT_LT(addr, first + kSegments) << "key " << key;
    });
  }
}

TEST(ShardedStore, ExtendRegionStaysInsideItsShard) {
  // The segments above shard 0 are shard 1's: free in its DAP or
  // holding its live values. Extending shard 0 over them must fail and
  // leave both shards as they were.
  auto ds = ClusteredData(9);
  auto sharded = MakeSharded(ds, /*num_shards=*/2);
  std::map<uint64_t, BitVector> shard1;
  for (uint64_t key = 0; shard1.size() < 16; ++key) {
    const BitVector& v = ds.items[key % ds.items.size()];
    ASSERT_TRUE(sharded->Put(key, v).ok()) << "key " << key;
    if (sharded->ShardOf(key) == 1) shard1[key] = v;
  }
  PlacementEngine& e0 = sharded->shard(0).engine();
  const PlacementEngine& e1 = sharded->shard(1).engine();
  const size_t free0 = e0.FreeCount();
  const std::vector<uint64_t> free1 = e1.pool().AllFree();
  EXPECT_EQ(e0.ExtendRegion(1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(e0.FreeCount(), free0);
  EXPECT_EQ(e1.pool().AllFree(), free1);
  EXPECT_EQ(sharded->shard(1).size(), shard1.size());
  for (const auto& [key, value] : shard1) {
    auto got = sharded->Get(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    EXPECT_EQ(*got, value) << "key " << key;
  }
  EXPECT_TRUE(e0.ExtendRegion(0).ok());
}

TEST(ShardedStore, RejectsInvalidConfigs) {
  ShardedStoreConfig cfg;
  cfg.num_shards = 0;
  EXPECT_FALSE(ShardedStore::Create(cfg).ok());
  cfg.num_shards = 2;
  cfg.shard = ShardConfig();
  cfg.shard.psi = 64;
  EXPECT_FALSE(ShardedStore::Create(cfg).ok());
}

TEST(ShardedStore, CreateShardValidatesAttachment) {
  StoreConfig sc = ShardConfig();
  nvm::DeviceConfig dc;
  dc.num_segments = kSegments;
  dc.segment_bits = kBits;
  nvm::EnergyMeter meter;
  nvm::NvmDevice device(dc, &meter);

  E2KvStore::ShardAttachment attach;
  EXPECT_FALSE(E2KvStore::CreateShard(sc, attach).ok());  // No device.
  attach.device = &device;
  attach.first_segment = 1;  // Range [1, 1+kSegments) overflows.
  EXPECT_FALSE(E2KvStore::CreateShard(sc, attach).ok());
  attach.first_segment = 0;
  sc.psi = 64;  // Start-Gap under a shard.
  EXPECT_FALSE(E2KvStore::CreateShard(sc, attach).ok());
  sc.psi = 0;
  EXPECT_TRUE(E2KvStore::CreateShard(sc, attach).ok());
}

TEST(ShardJournal, AppendsReplayInOrder) {
  auto j_or = ShardJournal::Create(/*capacity=*/16, /*max_value_bits=*/96);
  ASSERT_TRUE(j_or.ok());
  auto j = std::move(*j_or);
  EXPECT_EQ(j->count(), 0u);

  BitVector a = BitVector::FromString("1011");
  BitVector b(96);
  b.Set(0, true);
  b.Set(95, true);
  ASSERT_TRUE(j->Append(ShardJournal::Op::kPut, 7, a).ok());
  ASSERT_TRUE(j->Append(ShardJournal::Op::kPut, 9, b).ok());
  ASSERT_TRUE(j->Append(ShardJournal::Op::kDelete, 7, BitVector()).ok());
  EXPECT_EQ(j->count(), 3u);

  auto records_or = ShardJournal::ReplayImage(j->SnapshotImage());
  ASSERT_TRUE(records_or.ok());
  const auto& records = *records_or;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].op, ShardJournal::Op::kPut);
  EXPECT_EQ(records[0].key, 7u);
  EXPECT_EQ(records[0].value, a);
  EXPECT_EQ(records[1].key, 9u);
  EXPECT_EQ(records[1].value, b);
  EXPECT_EQ(records[2].op, ShardJournal::Op::kDelete);
  EXPECT_TRUE(records[2].value.empty());
}

TEST(ShardJournal, RejectsOverflowAndOversizedValues) {
  auto j_or = ShardJournal::Create(/*capacity=*/2, /*max_value_bits=*/64);
  ASSERT_TRUE(j_or.ok());
  auto j = std::move(*j_or);
  BitVector wide(65);
  EXPECT_FALSE(j->Append(ShardJournal::Op::kPut, 1, wide).ok());
  BitVector v(64);
  ASSERT_TRUE(j->Append(ShardJournal::Op::kPut, 1, v).ok());
  ASSERT_TRUE(j->Append(ShardJournal::Op::kPut, 2, v).ok());
  EXPECT_FALSE(j->Append(ShardJournal::Op::kPut, 3, v).ok());
  EXPECT_EQ(j->count(), 2u);
}

// Slot geometry mirrored from the journal layout (SlotHeader = 4 u64
// fields, value words rounded up; header = 8 u64 fields) so tests can
// reach into a snapshot image and damage specific bytes.
constexpr size_t kJournalHeaderBytes = 8 * sizeof(uint64_t);
size_t SlotBytesFor(size_t max_value_bits) {
  return 4 * sizeof(uint64_t) + ((max_value_bits + 63) / 64) * 8;
}

TEST(ShardJournal, CheckpointReplacesHistoryWithFreshGeneration) {
  auto j_or = ShardJournal::Create(/*capacity=*/4, /*max_value_bits=*/64);
  ASSERT_TRUE(j_or.ok());
  auto j = std::move(*j_or);
  BitVector v(64);
  for (uint64_t k = 0; k < 4; ++k) {
    v.Set(static_cast<size_t>(k), true);
    ASSERT_TRUE(j->Append(ShardJournal::Op::kPut, k, v).ok());
  }
  EXPECT_EQ(j->Append(ShardJournal::Op::kPut, 9, v).code(),
            StatusCode::kResourceExhausted);

  // Checkpoint to the live state of just two keys.
  BitVector a = BitVector::FromString("101");
  BitVector b = BitVector::FromString("011");
  std::vector<ShardJournal::Record> live = {
      {ShardJournal::Op::kPut, 1, a}, {ShardJournal::Op::kPut, 3, b}};
  ASSERT_TRUE(j->Checkpoint(live).ok());
  EXPECT_EQ(j->count(), 2u);
  EXPECT_EQ(j->generation(), 1u);

  // The journal has room again and replays checkpoint + new appends.
  ASSERT_TRUE(j->Append(ShardJournal::Op::kDelete, 1, BitVector()).ok());
  auto records_or = ShardJournal::ReplayImage(j->SnapshotImage());
  ASSERT_TRUE(records_or.ok());
  ASSERT_EQ(records_or->size(), 3u);
  EXPECT_EQ((*records_or)[0].key, 1u);
  EXPECT_EQ((*records_or)[0].value, a);
  EXPECT_EQ((*records_or)[1].key, 3u);
  EXPECT_EQ((*records_or)[1].value, b);
  EXPECT_EQ((*records_or)[2].op, ShardJournal::Op::kDelete);

  // An oversized checkpoint is rejected.
  std::vector<ShardJournal::Record> big(
      5, ShardJournal::Record{ShardJournal::Op::kPut, 0, BitVector(8)});
  EXPECT_EQ(j->Checkpoint(big).code(), StatusCode::kResourceExhausted);
}

TEST(ShardJournal, MidLogCorruptionIsDetectedNotReplayed) {
  // The PR's acceptance scenario: a deliberately corrupted mid-log
  // record must fail its checksum and be quarantined (valid prefix
  // recovered, tail untrusted) instead of silently replaying garbage.
  constexpr size_t kBitsPerSlot = 64;
  auto j_or = ShardJournal::Create(/*capacity=*/8, kBitsPerSlot);
  ASSERT_TRUE(j_or.ok());
  auto j = std::move(*j_or);
  BitVector v(kBitsPerSlot);
  for (uint64_t k = 0; k < 5; ++k) {
    v.Set(static_cast<size_t>(k), true);
    ASSERT_TRUE(j->Append(ShardJournal::Op::kPut, k, v).ok());
  }
  const size_t slot_bytes = SlotBytesFor(kBitsPerSlot);
  auto image = j->SnapshotImage();
  // Rot one value byte of committed record #2 (of 5) on "media".
  const size_t slot2 =
      j->pool().root() + kJournalHeaderBytes + 2 * slot_bytes;
  image[slot2 + 4 * sizeof(uint64_t)] ^= 0x10;

  EXPECT_EQ(ShardJournal::ReplayImage(image).status().code(),
            StatusCode::kDataLoss);

  auto verified_or = ShardJournal::ReplayImageVerified(image);
  ASSERT_TRUE(verified_or.ok()) << verified_or.status().ToString();
  const auto& verified = *verified_or;
  EXPECT_TRUE(verified.corrupted);
  EXPECT_FALSE(verified.torn_tail);
  EXPECT_EQ(verified.first_bad_slot, 2u);
  EXPECT_EQ(verified.committed_count, 5u);
  ASSERT_EQ(verified.records.size(), 2u);  // The clean prefix.
  EXPECT_EQ(verified.records[0].key, 0u);
  EXPECT_EQ(verified.records[1].key, 1u);

  // The live journal's scrub face sees the same damage.
  auto* cells = static_cast<uint8_t*>(j->pool().Direct(
      j->pool().root() + kJournalHeaderBytes + 2 * slot_bytes));
  cells[4 * sizeof(uint64_t)] ^= 0x10;
  size_t scanned = 0;
  EXPECT_EQ(j->VerifySlots(&scanned), 1u);
  EXPECT_EQ(scanned, 5u);
}

TEST(ShardJournal, TornTailIsTruncatedCleanly) {
  constexpr size_t kBitsPerSlot = 64;
  auto j_or = ShardJournal::Create(/*capacity=*/8, kBitsPerSlot);
  ASSERT_TRUE(j_or.ok());
  auto j = std::move(*j_or);
  BitVector v(kBitsPerSlot);
  for (uint64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(j->Append(ShardJournal::Op::kPut, k, v).ok());
  }
  auto image = j->SnapshotImage();
  // Damage the LAST committed record: indistinguishable from a program
  // pulse torn by the crash itself, so replay truncates it.
  const size_t slot4 =
      j->pool().root() + kJournalHeaderBytes + 4 * SlotBytesFor(kBitsPerSlot);
  image[slot4 + 4 * sizeof(uint64_t)] ^= 0x01;

  auto records_or = ShardJournal::ReplayImage(image);
  ASSERT_TRUE(records_or.ok()) << records_or.status().ToString();
  EXPECT_EQ(records_or->size(), 4u);

  auto verified_or = ShardJournal::ReplayImageVerified(image);
  ASSERT_TRUE(verified_or.ok());
  EXPECT_TRUE(verified_or->torn_tail);
  EXPECT_FALSE(verified_or->corrupted);
  EXPECT_EQ(verified_or->first_bad_slot, 4u);
}

TEST(ShardedStore, FullJournalCheckpointsAndKeepsServing) {
  auto ds = ClusteredData(13);
  ShardedStoreConfig cfg;
  cfg.num_shards = 2;
  cfg.shard = ShardConfig();
  cfg.journal = true;
  cfg.journal_capacity = 16;  // Tiny: updates must overflow it.
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  ASSERT_TRUE(store->Bootstrap().ok());

  // 10 distinct keys, 12 rounds of updates: 120 appends through
  // 16-slot journals — impossible without checkpoint-and-truncate.
  for (uint64_t round = 0; round < 12; ++round) {
    for (uint64_t key = 0; key < 10; ++key) {
      const auto& val = ds.items[(round * 10 + key) % ds.items.size()];
      ASSERT_TRUE(store->Put(key, val).ok())
          << "round " << round << " key " << key;
    }
  }
  ASSERT_TRUE(store->Delete(4).ok());

  auto snap = store->TakeSnapshot();
  EXPECT_GT(snap.journal_checkpoints, 0u);
  // Every journal shrank to live state + appends since its checkpoint,
  // and its replay still reconstructs the shard exactly.
  for (size_t s = 0; s < store->num_shards(); ++s) {
    EXPECT_LE(store->journal(s)->count(), cfg.journal_capacity);
    auto records_or =
        ShardJournal::ReplayImage(store->journal(s)->SnapshotImage());
    ASSERT_TRUE(records_or.ok());
    std::unordered_map<uint64_t, BitVector> replayed;
    for (const auto& r : *records_or) {
      if (r.op == ShardJournal::Op::kPut) {
        replayed[r.key] = r.value;
      } else {
        replayed.erase(r.key);
      }
    }
    EXPECT_EQ(replayed.size(), store->shard(s).size()) << "shard " << s;
    for (const auto& [key, value] : replayed) {
      auto got = store->Get(key);
      ASSERT_TRUE(got.ok()) << "key " << key;
      EXPECT_EQ(*got, value) << "key " << key;
    }
  }
}

TEST(ShardedStore, ScrubRepairsSilentBitRotFromJournalCopy) {
  auto ds = ClusteredData(21);
  ShardedStoreConfig cfg;
  cfg.num_shards = 2;
  cfg.shard = ShardConfig();
  cfg.shard.integrity_tracking = true;
  cfg.journal = true;
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  ASSERT_TRUE(store->Bootstrap().ok());

  for (uint64_t key = 0; key < 16; ++key) {
    ASSERT_TRUE(store->Put(key, ds.items[key % ds.items.size()]).ok());
  }
  const uint64_t victim = 5;
  const BitVector want = *store->Get(victim);
  const size_t s = store->ShardOf(victim);
  const uint64_t addr = *store->shard(s).tree().Get(victim);
  const size_t seg_off =
      static_cast<size_t>(addr - store->shard(s).first_segment());

  // Silent in-array rot: three cells flip with no write, no stats.
  store->InjectBitRot(s, seg_off, 3);
  store->InjectBitRot(s, seg_off, 64);
  store->InjectBitRot(s, seg_off, 200);

  // One full sweep of the damaged shard finds and repairs it.
  store->ScrubShard(s, kSegments);
  auto scrub = store->TakeScrubStats();
  EXPECT_GE(scrub.mismatches, 1u);
  EXPECT_GE(scrub.repaired, 1u);
  EXPECT_EQ(scrub.quarantined, 0u);

  // The key moved to a clean segment and reads back exactly.
  auto got = store->Get(victim);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, want);
  EXPECT_NE(*store->shard(s).tree().Get(victim), addr);

  // A second sweep is quiet: the damage was restamped, not re-flagged.
  store->ScrubShard(s, kSegments);
  EXPECT_EQ(store->TakeScrubStats().repaired, scrub.repaired);
}

TEST(ShardedStore, ScrubQuarantinesWhenNoRedundantCopyExists) {
  auto ds = ClusteredData(23);
  ShardedStoreConfig cfg;
  cfg.num_shards = 1;
  cfg.shard = ShardConfig();
  cfg.shard.integrity_tracking = true;
  cfg.journal = false;  // No redundant copy to repair from.
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  ASSERT_TRUE(store->Bootstrap().ok());
  for (uint64_t key = 0; key < 8; ++key) {
    ASSERT_TRUE(store->Put(key, ds.items[key % ds.items.size()]).ok());
  }
  const uint64_t addr = *store->shard(0).tree().Get(2);
  store->InjectBitRot(0, static_cast<size_t>(addr), 17);

  store->ScrubShard(0, kSegments);
  auto scrub = store->TakeScrubStats();
  EXPECT_GE(scrub.mismatches, 1u);
  EXPECT_GE(scrub.quarantined, 1u);
  EXPECT_EQ(scrub.repaired, 0u);
  EXPECT_TRUE(store->shard(0).controller().IsQuarantined(addr));
}

TEST(ShardedStore, JournaledShardsRecordEveryOperation) {
  auto ds = ClusteredData(9);
  auto sharded = MakeSharded(ds, /*num_shards=*/2,
                             /*background_retrain=*/false,
                             /*journal=*/true);
  for (uint64_t key = 0; key < 20; ++key) {
    ASSERT_TRUE(sharded->Put(key, ds.items[key % ds.items.size()]).ok());
  }
  ASSERT_TRUE(sharded->Delete(3).ok());
  size_t journaled = 0;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    ASSERT_NE(sharded->journal(s), nullptr);
    journaled += sharded->journal(s)->count();
  }
  EXPECT_EQ(journaled, 21u);  // 20 puts + 1 delete.
  // Replaying a shard's journal reproduces that shard's live key set.
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    auto records_or =
        ShardJournal::ReplayImage(sharded->journal(s)->SnapshotImage());
    ASSERT_TRUE(records_or.ok());
    std::unordered_map<uint64_t, BitVector> replayed;
    for (const auto& r : *records_or) {
      if (r.op == ShardJournal::Op::kPut) {
        replayed[r.key] = r.value;
      } else {
        replayed.erase(r.key);
      }
    }
    EXPECT_EQ(replayed.size(), sharded->shard(s).size());
    for (const auto& [key, value] : replayed) {
      auto got = sharded->Get(key);
      ASSERT_TRUE(got.ok()) << "key " << key;
      EXPECT_EQ(*got, value) << "key " << key;
    }
  }
}

TEST(ShardedStore, JournalErrorAppliesExactlyTheJournaledPrefix) {
  // The journal refuses k3 (one bit wider than its slot). k1 and k2 are
  // journaled, so they must be applied too; k3 and k4 must be neither,
  // or a replay after a crash would differ from what the store served.
  auto ds = ClusteredData(5);
  auto store = MakeSharded(ds, /*num_shards=*/1,
                           /*background_retrain=*/false, /*journal=*/true);
  std::vector<std::pair<uint64_t, BitVector>> kvs = {
      {1, ds.items[1]}, {2, ds.items[2]}, {3, BitVector(kBits + 1)},
      {4, ds.items[4]}};
  const Status st = store->MultiPutShard(0, kvs.data(), kvs.size());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();

  auto records_or =
      ShardJournal::ReplayImage(store->journal(0)->SnapshotImage());
  ASSERT_TRUE(records_or.ok());
  std::map<uint64_t, BitVector> replayed;
  for (const auto& r : *records_or) {
    if (r.op == ShardJournal::Op::kPut) {
      replayed[r.key] = r.value;
    } else {
      replayed.erase(r.key);
    }
  }
  std::vector<uint64_t> live;
  store->shard(0).tree().ForEach(
      [&](uint64_t key, uint64_t) { live.push_back(key); });
  std::vector<uint64_t> replayed_keys;
  for (const auto& [key, value] : replayed) replayed_keys.push_back(key);
  EXPECT_EQ(replayed_keys, live);
  EXPECT_EQ(live, (std::vector<uint64_t>{1, 2}));
  for (const auto& [key, value] : replayed) {
    auto got = store->Get(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    EXPECT_EQ(*got, value) << "key " << key;
  }
}

/// Replays shard `s`'s journal and checks it against the live shard: the
/// same key set, and every replayed value is the one the store serves.
void ExpectReplayMatchesShard(ShardedStore& store, size_t s) {
  auto records_or =
      ShardJournal::ReplayImage(store.journal(s)->SnapshotImage());
  ASSERT_TRUE(records_or.ok());
  std::map<uint64_t, BitVector> replayed;
  for (const auto& r : *records_or) {
    if (r.op == ShardJournal::Op::kPut) {
      replayed[r.key] = r.value;
    } else {
      replayed.erase(r.key);
    }
  }
  std::vector<uint64_t> live, replayed_keys;
  store.shard(s).tree().ForEach(
      [&](uint64_t key, uint64_t) { live.push_back(key); });
  for (const auto& [key, value] : replayed) replayed_keys.push_back(key);
  EXPECT_EQ(replayed_keys, live) << "shard " << s;
  for (const auto& [key, value] : replayed) {
    auto got = store.Get(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    EXPECT_EQ(*got, value) << "key " << key;
  }
}

std::unique_ptr<ShardedStore> MakeOneShardJournaled(
    const workload::BitDataset& ds, size_t segments, size_t capacity) {
  ShardedStoreConfig cfg;
  cfg.num_shards = 1;
  cfg.shard = ShardConfig();
  cfg.shard.num_segments = segments;
  cfg.shard.auto_retrain = false;
  cfg.journal = true;
  cfg.journal_capacity = capacity;
  auto store_or = ShardedStore::Create(cfg);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

TEST(ShardedStore, CheckpointNeverDropsRowsOfTheBatchInFlight) {
  // 12 batches of 4 updates over 10 keys through a 16-slot journal: the
  // journal fills in the middle of batches. A checkpoint taken there
  // would snapshot a tree without the batch's journaled but not yet
  // applied rows, and the new generation would lose them, so a replay
  // would serve their keys' older values.
  auto ds = ClusteredData(17);
  auto store = MakeOneShardJournaled(ds, kSegments, /*capacity=*/16);
  for (uint64_t b = 0; b < 12; ++b) {
    std::vector<std::pair<uint64_t, BitVector>> kvs;
    for (uint64_t i = 0; i < 4; ++i) {
      const uint64_t row = b * 4 + i;
      kvs.emplace_back(row % 10, ds.items[row % ds.items.size()]);
    }
    ASSERT_TRUE(store->MultiPutShard(0, kvs.data(), kvs.size()).ok())
        << "batch " << b;
  }
  EXPECT_GT(store->TakeSnapshot().journal_checkpoints, 0u);
  EXPECT_LE(store->journal(0)->count(), 16u);
  ExpectReplayMatchesShard(*store, 0);

  // A batch larger than a fresh checkpoint leaves room for (10 live keys
  // in 16 slots) is journaled and applied in chunks.
  std::vector<std::pair<uint64_t, BitVector>> big;
  for (uint64_t i = 0; i < 15; ++i) {
    big.emplace_back(i % 12, ds.items[(100 + i) % ds.items.size()]);
  }
  ASSERT_TRUE(store->MultiPutShard(0, big.data(), big.size()).ok());
  EXPECT_EQ(store->shard(0).size(), 12u);
  ExpectReplayMatchesShard(*store, 0);
}

TEST(ShardedStore, RowsTheShardRefusesAreNotJournaled) {
  // A 16-segment shard holds 16 keys; the 17th PUT finds the address
  // pool empty. The journal must not keep its record, or a replay after
  // a crash would resurrect a key the store never held.
  auto ds = ClusteredData(19);
  auto store = MakeOneShardJournaled(ds, /*segments=*/16, /*capacity=*/64);
  for (uint64_t key = 0; key < 16; ++key) {
    ASSERT_TRUE(store->Put(key, ds.items[key]).ok()) << "key " << key;
  }
  EXPECT_EQ(store->Put(16, ds.items[16]).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(store->journal(0)->count(), 16u);
  ExpectReplayMatchesShard(*store, 0);

  // The batch path, with one address free: the two updates land (each
  // takes the free address and recycles its key's old one), new key 17
  // takes the last free address, and the update of key 6 then finds the
  // pool empty and stops the batch. Only the three rows that landed stay
  // journaled.
  ASSERT_TRUE(store->Delete(0).ok());
  std::vector<std::pair<uint64_t, BitVector>> kvs = {
      {3, ds.items[40]}, {5, ds.items[41]}, {17, ds.items[42]},
      {6, ds.items[43]}, {7, ds.items[44]}};
  EXPECT_EQ(store->MultiPutShard(0, kvs.data(), kvs.size()).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(store->journal(0)->count(), 20u);  // 16 PUTs, 1 DELETE, 3.
  ExpectReplayMatchesShard(*store, 0);
  auto got = store->Get(17);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, ds.items[42]);
  got = store->Get(6);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, ds.items[6]);
}

TEST(ShardedStore, DeletesTheShardRefusesAreNotJournaled) {
  // A delete of a key the shard does not hold returns NotFound and must
  // leave no record: it would replay nothing, and on a small journal a
  // run of them forced checkpoints, each of which peeks every live key.
  auto ds = ClusteredData(23);
  auto store = MakeOneShardJournaled(ds, kSegments, /*capacity=*/8);
  for (uint64_t key = 0; key < 3; ++key) {
    ASSERT_TRUE(store->Put(key, ds.items[key]).ok()) << "key " << key;
  }
  ASSERT_TRUE(store->Delete(1).ok());
  const size_t count = store->journal(0)->count();
  EXPECT_EQ(count, 4u);
  for (uint64_t key = 1; key < 22; ++key) {
    if (key == 2) continue;  // Live.
    EXPECT_EQ(store->Delete(key).code(), StatusCode::kNotFound)
        << "key " << key;
    EXPECT_EQ(store->journal(0)->count(), count) << "key " << key;
  }
  EXPECT_EQ(store->TakeSnapshot().journal_checkpoints, 0u);
  ExpectReplayMatchesShard(*store, 0);
}

}  // namespace
}  // namespace e2nvm::core
