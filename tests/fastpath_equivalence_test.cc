// Equivalence of the write-path inference fast path (scratch buffers,
// fused k-means assignment, batched PlaceRows, Release cluster memo)
// with an allocating reference: identical placement addresses, cluster
// ids, device flip counts and energy for the same PUT stream — the fast
// path is an optimization, never a behavior change. Also pins that a
// MultiPut is the loop of Puts, batched, and the zero-allocation
// contracts of steady-state prediction, Puts and MultiPuts, and of warm
// training and refinement steps.
//
// The reference is built here from two oracles:
//  - Prediction: ReferenceClusterer forwards training to a real E2Model
//    but classifies every row on its own through an allocating path
//    (ReferenceCluster: Vae::EncodeMu on a one-row matrix, then
//    KMeans::Predict). Each comparison runs one stream through an
//    engine on the bare E2Model and one on the wrapper.
//  - Memo: both engines recycle released addresses through the same
//    placement memo, so the first oracle alone cannot see a stale memo.
//    After every operation, MemoIsFresh checks each cluster the fast
//    engine memoized against ReferenceCluster of the segment's current
//    content.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/e2_model.h"
#include "core/padding.h"
#include "core/placement_engine.h"
#include "core/store.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"

// Thread-local allocation counter for the zero-allocation assertions.
// One test binary per source file, so replacing global new here does not
// affect any other test. Matrix storage reaches it too: small blocks
// through operator new, large ones as mapped blocks (Allocations()).
namespace {
thread_local uint64_t t_alloc_count = 0;

/// Heap and mapped blocks this thread has allocated so far.
uint64_t Allocations() {
  return t_alloc_count + e2nvm::ml::MappedBlocksOnThisThread();
}
}  // namespace

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace e2nvm::core {
namespace {

constexpr size_t kSegments = 128;
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

nvm::DeviceConfig Geometry() {
  nvm::DeviceConfig dc;
  dc.num_segments = kSegments;
  dc.segment_bits = kBits;
  return dc;
}

E2ModelConfig ModelConfig() {
  E2ModelConfig mc;
  mc.input_dim = kBits;
  mc.k = 4;
  mc.pretrain_epochs = 2;
  mc.finetune_rounds = 1;
  return mc;
}

/// The allocating reference classification of one content row: the
/// encoder on a fresh one-row matrix, then the exact K-means scan. It
/// shares no scratch, no batch and no fused assignment with the engine.
size_t ReferenceCluster(const E2Model& model, const float* row) {
  const size_t dim = model.config().input_dim;
  ml::Matrix x(1, dim);
  std::copy(row, row + dim, x.Row(0));
  const ml::Matrix z = model.vae().EncodeMu(x);
  return model.kmeans().Predict(z.Row(0), z.cols());
}

/// ReferenceCluster of a value or segment image under the serving model
/// of an engine built on a bare E2Model.
size_t ReferenceClusterOf(const PlacementEngine& engine,
                          const BitVector& bits) {
  return ReferenceCluster(dynamic_cast<const E2Model&>(engine.clusterer()),
                          bits.ToFloats().data());
}

/// The prediction oracle: a real model whose engine-facing inference
/// runs ReferenceCluster row by row. Shadow models of a background
/// retrain are wrapped too.
class ReferenceClusterer : public placement::ContentClusterer {
 public:
  explicit ReferenceClusterer(std::unique_ptr<E2Model> model)
      : model_(std::move(model)) {}

  std::string_view name() const override { return model_->name(); }
  std::unique_ptr<placement::ContentClusterer> CloneUntrained()
      const override {
    return std::make_unique<ReferenceClusterer>(
        std::make_unique<E2Model>(model_->config()));
  }
  std::unique_ptr<placement::ContentClusterer> Clone() const override {
    return std::make_unique<ReferenceClusterer>(
        std::make_unique<E2Model>(*model_));
  }
  Status Train(const ml::RowsView& contents) override {
    return model_->Train(contents);
  }
  void AssignScratch(ml::InferenceScratch* scratch) const override {
    scratch->clusters.resize(scratch->in.rows());
    for (size_t r = 0; r < scratch->in.rows(); ++r) {
      scratch->clusters[r] = ReferenceCluster(*model_, scratch->in.Row(r));
    }
  }
  size_t num_clusters() const override { return model_->num_clusters(); }
  double PredictFlops() const override { return model_->PredictFlops(); }
  double LastTrainFlops() const override {
    return model_->LastTrainFlops();
  }
  bool SupportsPartialFit() const override {
    return model_->SupportsPartialFit();
  }
  Status PartialFit(const ml::Matrix& batch) override {
    return model_->PartialFit(batch);
  }
  double LastPartialFitFlops() const override {
    return model_->LastPartialFitFlops();
  }

 private:
  std::unique_ptr<E2Model> model_;
};

struct SideOptions {
  bool background_retrain = false;
  /// Runs the background trainings on this pool instead of a dedicated
  /// thread per training.
  ThreadPool* retrain_pool = nullptr;
  /// Replay-ring refinement (DESIGN.md §16), tuned so a value shift
  /// fires dozens of refine steps within a few hundred operations: the
  /// drift never escalates, so full retrains come only from the
  /// capacity trigger, and enough steps run that some move a memoized
  /// segment's cluster.
  bool incremental = false;
};

/// One side of a comparison: the stack E2KvStore builds (device, DCW
/// controller, E2Model, auto-retraining engine, key -> address index
/// whose updates recycle the old address), with the model behind
/// ReferenceClusterer on the reference side.
class Side {
 public:
  Side(const workload::BitDataset& ds, bool reference, SideOptions opt = {})
      : device_(Geometry()),
        ctrl_(&device_, &dcw_, kSegments, /*psi=*/0) {
    for (size_t i = 0; i < kSegments; ++i) {
      ctrl_.Seed(i, ds.items[i % ds.items.size()]);
    }
    auto model = std::make_unique<E2Model>(ModelConfig());
    std::unique_ptr<placement::ContentClusterer> served;
    if (reference) {
      served = std::make_unique<ReferenceClusterer>(std::move(model));
    } else {
      served = std::move(model);
    }
    PlacementEngine::Config ec;
    ec.num_segments = kSegments;
    ec.auto_retrain = true;
    ec.retrain.min_free_per_cluster = 8;
    if (opt.incremental) {
      ec.retrain.window = 20;
      ec.retrain.refine_interval = 10;
      ec.retrain.max_refine_rounds = 1000;
      ec.incremental.enabled = true;
      ec.incremental.ring_capacity = 64;
      ec.incremental.refine_batch = 8;
    }
    engine_ =
        std::make_unique<PlacementEngine>(&ctrl_, std::move(served), ec);
    if (opt.background_retrain) {
      engine_->EnableBackgroundRetrain(opt.retrain_pool);
    }
    EXPECT_TRUE(engine_->Bootstrap().ok());
  }

  /// E2KvStore::Put (a one-row MultiPut): place, index, recycle the
  /// superseded address.
  Status Put(uint64_t key, const BitVector& value) {
    E2_ASSIGN_OR_RETURN(uint64_t addr, engine_->Place(value));
    return Index(key, addr);
  }

  /// E2KvStore::Delete: unindex the key, recycle its address.
  Status Delete(uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) return Status::NotFound("no such key");
    const uint64_t addr = it->second;
    index_.erase(it);
    return engine_->Release(addr);
  }

  /// E2KvStore::MultiPut: one PlaceRows whose per-row callback indexes
  /// the key and recycles the superseded address as the row lands.
  Status MultiPut(const std::vector<std::pair<uint64_t, BitVector>>& kvs) {
    std::vector<const BitVector*> values;
    for (const auto& kv : kvs) values.push_back(&kv.second);
    struct Rows {
      Side* side;
      const std::vector<std::pair<uint64_t, BitVector>>* kvs;
    } rows{this, &kvs};
    auto index_row = [](void* ctx, size_t i, uint64_t addr) {
      const Rows& r = *static_cast<const Rows*>(ctx);
      return r.side->Index((*r.kvs)[i].first, addr);
    };
    return engine_->PlaceRows(values.data(), values.size(), index_row,
                              &rows);
  }

  std::optional<uint64_t> AddrOf(uint64_t key) const {
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  PlacementEngine& engine() { return *engine_; }
  nvm::NvmDevice& device() { return device_; }

 private:
  Status Index(uint64_t key, uint64_t addr) {
    auto [it, inserted] = index_.try_emplace(key, addr);
    if (inserted) return Status::Ok();
    const uint64_t old = it->second;
    it->second = addr;
    return engine_->Release(old);
  }

  schemes::Dcw dcw_;
  nvm::NvmDevice device_;
  nvm::MemoryController ctrl_;
  std::unique_ptr<PlacementEngine> engine_;
  std::unordered_map<uint64_t, uint64_t> index_;
};

/// The memo oracle: every cluster the engine holds for Release must be
/// what its serving model predicts for the segment's current content.
::testing::AssertionResult MemoIsFresh(PlacementEngine& engine) {
  for (uint64_t addr = 0; addr < kSegments; ++addr) {
    const int32_t memo = engine.placed_cluster(addr);
    if (memo < 0) continue;
    const size_t fresh = ReferenceClusterOf(engine, engine.ctrl().Peek(addr));
    if (static_cast<size_t>(memo) != fresh) {
      return ::testing::AssertionFailure()
             << "stale memo at addr " << addr << ": " << memo
             << " != fresh prediction " << fresh;
    }
  }
  return ::testing::AssertionSuccess();
}

/// The same Put on both sides, then the memo oracle.
::testing::AssertionResult PutBoth(Side& ref, Side& fast, uint64_t key,
                                   const BitVector& value) {
  if (!ref.Put(key, value).ok()) {
    return ::testing::AssertionFailure() << "reference Put failed";
  }
  if (!fast.Put(key, value).ok()) {
    return ::testing::AssertionFailure() << "fast Put failed";
  }
  return MemoIsFresh(fast.engine());
}

/// Every observable outcome that must match between the two paths.
struct Observed {
  std::vector<std::optional<uint64_t>> addrs;  // Per-key final address.
  uint64_t data_flips;
  uint64_t writes;
  uint64_t placements;
  uint64_t fallbacks;
  uint64_t retrains;
  uint64_t model_generation;
  double total_pj;
};

/// Everything but the addresses, from the device and engine under them.
Observed ObserveStack(nvm::NvmDevice& device, PlacementEngine& engine) {
  Observed o;
  o.data_flips = device.stats().data_bits_flipped;
  o.writes = device.stats().writes;
  o.placements = engine.stats().placements;
  o.fallbacks = engine.stats().fallback_placements;
  o.retrains = engine.stats().retrains;
  o.model_generation = engine.model_generation();
  o.total_pj = device.meter().TotalPj();
  return o;
}

Observed Observe(Side& side) {
  Observed o = ObserveStack(side.device(), side.engine());
  for (uint64_t key = 0; key < kKeys; ++key) {
    o.addrs.push_back(side.AddrOf(key));
  }
  return o;
}

/// The same observation of a whole store over keys [0, keys).
Observed Observe(E2KvStore& store, uint64_t keys) {
  Observed o = ObserveStack(store.device(), store.engine());
  for (uint64_t key = 0; key < keys; ++key) {
    o.addrs.push_back(store.tree().Get(key));
  }
  return o;
}

void ExpectSame(const Observed& ref, const Observed& fast) {
  EXPECT_EQ(ref.addrs, fast.addrs);
  EXPECT_EQ(ref.data_flips, fast.data_flips);
  EXPECT_EQ(ref.writes, fast.writes);
  EXPECT_EQ(ref.placements, fast.placements);
  EXPECT_EQ(ref.fallbacks, fast.fallbacks);
  EXPECT_EQ(ref.retrains, fast.retrains);
  EXPECT_EQ(ref.model_generation, fast.model_generation);
  EXPECT_EQ(ref.total_pj, fast.total_pj);
}

std::unique_ptr<E2KvStore> MakeStore(const workload::BitDataset& ds,
                                     size_t segments = kSegments,
                                     size_t min_free_per_cluster = 8) {
  StoreConfig sc;
  sc.num_segments = segments;
  sc.segment_bits = kBits;
  sc.model = ModelConfig();
  sc.auto_retrain = true;
  sc.retrain.min_free_per_cluster = min_free_per_cluster;
  auto store_or = E2KvStore::Create(sc);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

TEST(FastPathEquivalence, SequentialPutsMatchReferenceAcrossSeeds) {
  for (uint64_t seed : {2u, 11u, 29u}) {
    auto ds = ClusteredData(seed);
    Side ref(ds, /*reference=*/true);
    Side fast(ds, /*reference=*/false);
    for (uint64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(PutBoth(ref, fast, i % kKeys, ds.items[i % ds.items.size()]))
          << "seed " << seed << " op " << i;
    }
    ExpectSame(Observe(ref), Observe(fast));
    // The same synchronous retrain schedule ran on both sides.
    EXPECT_GT(fast.engine().stats().retrains, 0u) << "seed " << seed;
  }
}

TEST(FastPathEquivalence, IncrementalRefinementMatchesReference) {
  // Refine steps change the model without a retrain or a swap, and
  // invalidate the memo. The value shift halfway through makes them
  // fire.
  for (uint64_t seed : {2u, 11u, 29u}) {
    auto ds = ClusteredData(seed);
    auto shifted = ClusteredData(seed + 1000);
    Side ref(ds, /*reference=*/true, {.incremental = true});
    Side fast(ds, /*reference=*/false, {.incremental = true});
    for (uint64_t i = 0; i < 400; ++i) {
      const workload::BitDataset& src = i < 200 ? ds : shifted;
      ASSERT_TRUE(
          PutBoth(ref, fast, i % kKeys, src.items[i % src.items.size()]))
          << "seed " << seed << " op " << i;
    }
    ExpectSame(Observe(ref), Observe(fast));
    EXPECT_EQ(ref.engine().stats().refine_steps,
              fast.engine().stats().refine_steps);
    EXPECT_GT(fast.engine().stats().refine_steps, 0u) << "seed " << seed;
  }
}

TEST(FastPathEquivalence, PredictClusterMatchesReference) {
  auto ds = ClusteredData(5);
  Side ref(ds, /*reference=*/true);
  Side fast(ds, /*reference=*/false);
  for (size_t i = 0; i < ds.items.size(); ++i) {
    auto a = ref.engine().PredictClusterFor(ds.items[i]);
    auto b = fast.engine().PredictClusterFor(ds.items[i]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "item " << i;
    // And against the oracle fed the value's own float expansion.
    EXPECT_EQ(*b, ReferenceClusterOf(fast.engine(), ds.items[i]))
        << "item " << i;
  }
}

/// A Put-loop vs MultiPut comparison: store geometry, key space, batch
/// size and an optional padder on both stores.
struct PutLoopCase {
  size_t segments = kSegments;
  size_t min_free_per_cluster = 8;
  uint64_t keys = kKeys;
  size_t batch = 16;
  std::optional<PadType> pad;
};

/// Sends values[i] to key i % keys through a loop of Puts on one store
/// and through MultiPut batches on a twin. MultiPut is that loop, only
/// batched, so both must end with the same per-key address and content,
/// flips, writes, placements, fallbacks, retrains and total energy.
/// `batched_out`, when given, receives the MultiPut side's observation.
void ExpectMultiPutIsThePutLoop(const workload::BitDataset& ds,
                                const std::vector<BitVector>& values,
                                const PutLoopCase& c,
                                Observed* batched_out = nullptr) {
  auto seq = MakeStore(ds, c.segments, c.min_free_per_cluster);
  auto batched = MakeStore(ds, c.segments, c.min_free_per_cluster);
  std::optional<Padder> padder;
  if (c.pad.has_value()) {
    padder.emplace(*c.pad, PadLocation::kEnd, kBits);
    seq->engine().SetPadder(&*padder, nullptr);
    batched->engine().SetPadder(&*padder, nullptr);
  }
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(seq->Put(i % c.keys, values[i]).ok()) << "op " << i;
    kvs.emplace_back(i % c.keys, values[i]);
    if (kvs.size() == c.batch) {
      ASSERT_TRUE(batched->MultiPut(kvs).ok()) << "op " << i;
      kvs.clear();
    }
  }
  ASSERT_TRUE(batched->MultiPut(kvs).ok());
  for (uint64_t key = 0; key < c.keys; ++key) {
    auto a = seq->Get(key);
    auto b = batched->Get(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "key " << key;
  }
  const Observed observed = Observe(*batched, c.keys);
  ExpectSame(Observe(*seq, c.keys), observed);
  if (batched_out != nullptr) *batched_out = observed;
}

TEST(FastPathEquivalence, MultiPutMatchesSequentialPuts) {
  {
    SCOPED_TRACE("128 segments, 16-row batches");
    auto ds = ClusteredData(7);
    std::vector<BitVector> values;
    for (uint64_t i = 0; i < 320; ++i) {
      values.push_back(ds.items[i % ds.items.size()]);
    }
    Observed batched{};
    ExpectMultiPutIsThePutLoop(ds, values, {}, &batched);
    // Neither path fell back.
    EXPECT_EQ(batched.fallbacks, 0u);
  }
  for (uint64_t seed : {7u, 23u, 41u}) {
    // A small shard: with 20 keys, every 24-row batch repeats keys, and
    // the few spare segments per cluster put the capacity trigger one
    // early recycle away.
    SCOPED_TRACE("64 segments, 24-row batches, seed " +
                 std::to_string(seed));
    auto ds = ClusteredData(seed);
    std::vector<BitVector> values;
    for (uint64_t i = 0; i < 480; ++i) {
      values.push_back(ds.items[i % ds.items.size()]);
    }
    ExpectMultiPutIsThePutLoop(
        ds, values,
        {.segments = 64, .min_free_per_cluster = 2, .keys = 20,
         .batch = 24, .pad = std::nullopt});
  }
  for (uint64_t seed : {23u, 31u}) {
    // Mixed widths under memory-based padding, the one padder whose
    // features depend on the writes before them in the batch: every
    // third value is full-width, the rest 64-253 bits. On the small
    // shard a narrow row featurized before the earlier rows of its batch
    // land pads differently (both seeds catch that; the dataset-based
    // and random padders do not).
    SCOPED_TRACE("memory-based padding, mixed widths, seed " +
                 std::to_string(seed));
    auto ds = ClusteredData(seed);
    Rng rng(seed);
    std::vector<BitVector> values;
    for (uint64_t i = 0; i < 360; ++i) {
      const BitVector& item = ds.items[i % ds.items.size()];
      values.push_back(i % 3 == 0 ? item
                                  : item.Slice(0, 64 + rng.NextBounded(190)));
    }
    ExpectMultiPutIsThePutLoop(
        ds, values,
        {.segments = 64, .min_free_per_cluster = 2, .keys = 20,
         .batch = 12, .pad = PadType::kMemoryBased});
  }
}

TEST(FastPathEquivalence, MultiPutMatchesReferenceWithoutUpdates) {
  // Unique keys: no mid-stream recycling, so the batched fast path must
  // reproduce sequential reference Puts address-for-address and
  // flip-for-flip.
  auto ds = ClusteredData(13);
  Side ref(ds, /*reference=*/true);
  Side batched(ds, /*reference=*/false);
  constexpr size_t kBatch = 12;
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < kKeys; ++i) {
    const auto& v = ds.items[i % ds.items.size()];
    ASSERT_TRUE(ref.Put(i, v).ok());
    kvs.emplace_back(i, v);
    if (kvs.size() == kBatch) {
      ASSERT_TRUE(batched.MultiPut(kvs).ok());
      ASSERT_TRUE(MemoIsFresh(batched.engine())) << "op " << i;
      kvs.clear();
    }
  }
  ASSERT_TRUE(batched.MultiPut(kvs).ok());
  ExpectSame(Observe(ref), Observe(batched));
}

TEST(FastPathEquivalence, MatchesReferenceAcrossBackgroundSwap) {
  // Drive both sides through a deterministic shadow-model swap: run the
  // same stream, and whenever a shadow training is in flight, drain it
  // and adopt it at the same operation index on both sides.
  auto ds = ClusteredData(17);
  Side ref(ds, /*reference=*/true, {.background_retrain = true});
  Side fast(ds, /*reference=*/false, {.background_retrain = true});
  auto drain = [](Side& s) {
    while (s.engine().RetrainInFlight()) {
    }
    s.engine().PumpBackgroundRetrain();
  };
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(PutBoth(ref, fast, i % kKeys, ds.items[i % ds.items.size()]))
        << "op " << i;
    drain(ref);
    drain(fast);
    ASSERT_TRUE(MemoIsFresh(fast.engine())) << "after drain, op " << i;
    ASSERT_EQ(ref.engine().model_generation(),
              fast.engine().model_generation())
        << "op " << i;
  }
  EXPECT_GT(fast.engine().model_generation(), 0u)
      << "no shadow model was ever adopted; swap never exercised";
  ExpectSame(Observe(ref), Observe(fast));
}

TEST(FastPathEquivalence, MultiPutAcrossBackgroundSwapMatchesReference) {
  // A shadow swap that lands inside a MultiPut. Both sides Put until a
  // shadow training starts on the same op, and the training finishes
  // unadopted. The next values go in as sequential Puts on the
  // reference side and as one MultiPut on the fast side, whose first
  // PlaceAt adopts the shadow: it re-predicts the address released
  // since the snapshot while the rest of the batch is still staged, then
  // re-assigns those rows under the new model. Batch keys are fresh and
  // are deleted again afterwards.
  auto ds = ClusteredData(17);
  // One worker runs both sides' trainings in launch order. During a
  // batch a parked task holds it, so a training launched inside the
  // batch (the capacity trigger can fire again right after the swap)
  // cannot finish there; the next Put adopts it on both sides. `hold`
  // outlives the worker, which may run the parked task as it drains.
  std::atomic<bool> hold{false};
  ThreadPool trainer(1);
  Side ref(ds, /*reference=*/true,
           {.background_retrain = true, .retrain_pool = &trainer});
  Side fast(ds, /*reference=*/false,
            {.background_retrain = true, .retrain_pool = &trainer});
  auto finish = [](Side& s) {
    while (s.engine().RetrainInFlight()) {
    }
  };
  constexpr size_t kBatch = 12;
  size_t swaps = 0;
  for (uint64_t i = 0; i < 600 && swaps < 3; ++i) {
    const uint64_t launched = fast.engine().stats().background_retrains;
    ASSERT_TRUE(PutBoth(ref, fast, i % kKeys, ds.items[i % ds.items.size()]))
        << "op " << i;
    ASSERT_EQ(ref.engine().stats().background_retrains,
              fast.engine().stats().background_retrains)
        << "op " << i;
    if (fast.engine().stats().background_retrains == launched) continue;
    finish(ref);
    finish(fast);

    std::vector<std::pair<uint64_t, BitVector>> kvs;
    for (uint64_t j = 0; j < kBatch; ++j) {
      kvs.emplace_back(kKeys + j, ds.items[(i + 1 + j) % ds.items.size()]);
    }
    const uint64_t gen = fast.engine().model_generation();
    hold = true;
    trainer.Submit([&hold] {
      while (hold) std::this_thread::yield();
    });
    // No early return while held: the engines' destructors would wait
    // forever for a training queued behind the parked task.
    Status puts = Status::Ok();
    for (const auto& [key, value] : kvs) {
      if (puts.ok()) puts = ref.Put(key, value);
    }
    const Status multi_put = fast.MultiPut(kvs);
    hold = false;
    ASSERT_TRUE(puts.ok()) << "op " << i;
    ASSERT_TRUE(multi_put.ok()) << "op " << i;
    ASSERT_EQ(ref.engine().model_generation(), gen + 1) << "op " << i;
    ASSERT_EQ(fast.engine().model_generation(), gen + 1) << "op " << i;
    ASSERT_TRUE(MemoIsFresh(fast.engine())) << "op " << i;
    for (const auto& kv : kvs) {
      EXPECT_EQ(ref.AddrOf(kv.first), fast.AddrOf(kv.first)) << "op " << i;
      ASSERT_TRUE(ref.Delete(kv.first).ok());
      ASSERT_TRUE(fast.Delete(kv.first).ok());
    }
    finish(ref);
    finish(fast);
    ++swaps;
  }
  EXPECT_EQ(swaps, 3u);
  EXPECT_GT(fast.engine().stats().swap_repredictions, 0u);
  EXPECT_EQ(ref.engine().stats().swap_repredictions,
            fast.engine().stats().swap_repredictions);
  ExpectSame(Observe(ref), Observe(fast));
}

TEST(FastPathEquivalence, SteadyStatePredictionIsAllocationFree) {
  auto ds = ClusteredData(3);
  Side fast(ds, /*reference=*/false);
  // Warm up: first predictions size the scratch buffers (grow-only).
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(fast.engine().PredictClusterFor(ds.items[i]).ok());
  }
  uint64_t before = Allocations();
  for (size_t i = 0; i < 200; ++i) {
    auto c = fast.engine().PredictClusterFor(ds.items[i % ds.items.size()]);
    ASSERT_TRUE(c.ok());
  }
  EXPECT_EQ(Allocations(), before)
      << "steady-state PredictClusterFor allocated on the heap";
  // The reference path allocates every call — the counter must move, or
  // the counting itself is broken and the assertion above is vacuous.
  Side ref(ds, /*reference=*/true);
  before = Allocations();
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(ref.engine().PredictClusterFor(ds.items[i]).ok());
  }
  EXPECT_GT(Allocations(), before);
}

void ExpectAllocationFreePuts(size_t scan_width) {
  // The full PUT pipeline — placement inference, DAP acquire (the first
  // free address, or the scan of scan_width of them), DCW write, index
  // update, old-address recycling, retrain-window accounting — must stay
  // off the heap once every scratch buffer and ring has grown to its
  // working size. auto_retrain stays off: a retrain legitimately
  // rebuilds the model and repopulates the pool, which allocates.
  auto ds = ClusteredData(19);
  StoreConfig sc;
  sc.num_segments = kSegments;
  sc.segment_bits = kBits;
  sc.model.k = 4;
  sc.model.pretrain_epochs = 2;
  sc.model.finetune_rounds = 1;
  sc.auto_retrain = false;
  sc.scan_width = scan_width;
  auto store_or = E2KvStore::Create(sc);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  ASSERT_TRUE(store->Bootstrap().ok());

  // Warm up: grow inference scratch, WriteResult buffers, free-list
  // rings, and the retrain window to steady-state capacity.
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        store->Put(i % kKeys, ds.items[i % ds.items.size()]).ok());
  }

  uint64_t before = Allocations();
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        store->Put(i % kKeys, ds.items[i % ds.items.size()]).ok());
  }
  EXPECT_EQ(Allocations() - before, 0u)
      << "steady-state Put allocated on the heap";

  // Same contract for the batched path: reuse one staged batch so only
  // MultiPut's own work is measured.
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < 16; ++i) {
    kvs.emplace_back(i % kKeys, ds.items[i % ds.items.size()]);
  }
  for (int warm = 0; warm < 8; ++warm) {
    ASSERT_TRUE(store->MultiPut(kvs).ok());
  }
  before = Allocations();
  for (int round = 0; round < 16; ++round) {
    ASSERT_TRUE(store->MultiPut(kvs).ok());
  }
  EXPECT_EQ(Allocations() - before, 0u)
      << "steady-state MultiPut allocated on the heap";
}

TEST(FastPathEquivalence, SteadyStatePutsAreAllocationFree) {
  for (size_t width : {size_t{1}, size_t{8}, kWholeCluster}) {
    SCOPED_TRACE(width);
    ExpectAllocationFreePuts(width);
  }
}

TEST(FastPathEquivalence, WarmTrainAndRefineStepsAreAllocationFree) {
  // At 2048 bits a 64-row step's activations, the input layer's buffers
  // and the batch copy are mapped blocks, the rest heap blocks, so the
  // count covers both. Every kind of step E2Model runs: pretraining
  // (loss computed, rows copied), fine-tuning (cluster term, rows
  // copied) and refinement (no loss, the batch itself). The count sees
  // both kinds of Matrix block, or the zero checks would be vacuous.
  uint64_t before = Allocations();
  { ml::Matrix heap_block(4, 4); }
  EXPECT_EQ(Allocations(), before + 1) << "a heap Matrix went uncounted";
  { ml::Matrix mapped_block(256, 256); }
  EXPECT_EQ(Allocations(), before + 2) << "a mapped Matrix went uncounted";

  ml::VaeConfig vc;
  vc.input_dim = 2048;
  vc.hidden_dim = 128;
  vc.latent_dim = 10;
  ml::Vae vae(vc);
  Rng rng(5);
  ml::Matrix rows(96, vc.input_dim);
  for (auto& v : rows.data()) v = rng.NextBernoulli(0.3) ? 1.0f : 0.0f;
  ml::Matrix centroids(4, vc.latent_dim);
  std::vector<size_t> assign(64);
  for (size_t i = 0; i < assign.size(); ++i) assign[i] = i % 4;
  ml::VaeTrainOptions plain;
  ml::VaeTrainOptions joint;
  joint.centroids = &centroids;
  joint.assignments = &assign;
  joint.cluster_weight = 0.05f;
  ml::Vae::BatchLoss loss;
  ml::Vae::TrainingSession session(&vae);
  auto steps = [&] {
    vae.TrainRows(rows, 0, 64, plain, &loss);
    vae.TrainRows(rows, 32, 64, joint);
    vae.TrainRows(rows, 0, rows.rows(), plain);
  };
  steps();  // Sizes the workspace.
  before = Allocations();
  for (int round = 0; round < 3; ++round) steps();
  EXPECT_EQ(Allocations() - before, 0u) << "a warm training step allocated";
  EXPECT_EQ(vae.step(), 12);

  // A refine step on a trained model: the VAE step, the fresh codes and
  // the k-means nudge.
  E2ModelConfig mc = ModelConfig();
  E2Model model(mc);
  auto ds = ClusteredData(7);
  ASSERT_TRUE(model.Train(ds.ToMatrix()).ok());
  ml::Matrix batch(16, kBits);
  for (size_t i = 0; i < batch.rows(); ++i) {
    ds.items[i].AppendFloatsTo(batch.Row(i));
  }
  ASSERT_TRUE(model.PartialFit(batch).ok());
  before = Allocations();
  for (int step = 0; step < 4; ++step) {
    ASSERT_TRUE(model.PartialFit(batch).ok());
  }
  EXPECT_EQ(Allocations() - before, 0u) << "a warm refine step allocated";
}

}  // namespace
}  // namespace e2nvm::core
