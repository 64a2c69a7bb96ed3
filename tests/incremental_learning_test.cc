// Incremental online learning (DESIGN.md §16): the replay ring, the
// PartialFit mini-batch updates, the escalating drift detector, and the
// engine-level determinism contract — same seed => byte-identical ring
// contents, refinement schedule, and model predictions across runs;
// incremental-off stays bit-identical to the full-retrain-only engine.

#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/e2_model.h"
#include "core/placement_engine.h"
#include "core/replay_ring.h"
#include "core/retrain.h"
#include "core/store.h"
#include "ml/kmeans.h"
#include "ml/matrix.h"
#include "ml/vae.h"
#include "placement/clusterer.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"

namespace e2nvm::core {
namespace {

constexpr size_t kSegments = 128;
constexpr size_t kBits = 256;

workload::BitDataset ClusteredData(size_t samples, uint64_t seed,
                                   size_t dim = kBits) {
  workload::ProtoConfig cfg;
  cfg.dim = dim;
  cfg.num_classes = 4;
  cfg.samples = samples;
  cfg.noise = 0.03;
  cfg.seed = seed;
  return workload::MakeProtoDataset(cfg);
}

ml::Matrix ContentsOf(const workload::BitDataset& ds, size_t rows,
                      size_t dim = kBits) {
  ml::Matrix m(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    ds.items[i % ds.items.size()].AppendFloatsTo(m.Row(i));
  }
  return m;
}

bool SameFloats(const ml::Matrix& a, const ml::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.Row(i), b.Row(i), a.cols() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// ReplayRing

TEST(ReplayRingTest, AppendsWrapAndKeepRecencyOrder) {
  ReplayRing ring;
  EXPECT_EQ(ring.capacity(), 0u);
  ring.Reset(4, 3);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.dim(), 3u);
  EXPECT_EQ(ring.size(), 0u);

  // Row v holds v's three low bits.
  for (int v = 0; v < 6; ++v) {
    BitVector row(3);
    for (size_t j = 0; j < 3; ++j) row.Set(j, (v >> j) & 1);
    ring.Append(row);
    if (v == 1) {
      // Partially full: two rows, newest first.
      EXPECT_EQ(ring.size(), 2u);
      EXPECT_EQ(ring.RecentRow(0)[0], 1u);
      EXPECT_EQ(ring.RecentRow(1)[0], 0u);
    }
  }
  // Wrapped: rows 2..5 survive; RecentRow(0) is the newest.
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_appends(), 6u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.RecentRow(i)[0], 5 - i) << i;
  }
}

// ---------------------------------------------------------------------
// KMeans::PartialFit

TEST(KMeansPartialFitTest, RequiresFitAndChecksWidth) {
  ml::KMeans km({.k = 2, .max_iters = 20, .seed = 5});
  ml::Matrix batch(4, 8);
  EXPECT_FALSE(km.PartialFit(batch).ok());  // Before Fit.

  ml::Matrix x(32, 8);
  for (size_t i = 0; i < 32; ++i) {
    for (size_t j = 0; j < 8; ++j) x.Row(i)[j] = i < 16 ? 0.0f : 1.0f;
  }
  ASSERT_TRUE(km.Fit(x).ok());
  ml::Matrix narrow(2, 4);
  EXPECT_FALSE(km.PartialFit(narrow).ok());  // Wrong width.
  EXPECT_TRUE(km.PartialFit(batch).ok());
  EXPECT_GT(km.PartialFitFlops(4), 0.0);
}

TEST(KMeansPartialFitTest, WarmStartDampsTheUpdate) {
  ml::KMeans km({.k = 2, .max_iters = 20, .seed = 5});
  ml::Matrix x(32, 8);
  for (size_t i = 0; i < 32; ++i) {
    for (size_t j = 0; j < 8; ++j) x.Row(i)[j] = i < 16 ? 0.0f : 1.0f;
  }
  ASSERT_TRUE(km.Fit(x).ok());

  std::vector<float> zero(8, 0.0f);
  const size_t low = km.Predict(zero.data(), 8);
  const float before = km.centroids().Row(low)[0];
  ASSERT_NEAR(before, 0.0f, 0.05f);

  // A batch at 0.25 pulls the low centroid toward it, but the counts
  // seeded from Fit's final assignment damp the move: the centroid must
  // land strictly between its old position and the batch mean.
  ml::Matrix batch(8, 8);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) batch.Row(i)[j] = 0.25f;
  }
  ASSERT_TRUE(km.PartialFit(batch).ok());
  const float after = km.centroids().Row(low)[0];
  EXPECT_GT(after, before);
  EXPECT_LT(after, 0.25f);
}

TEST(KMeansPartialFitTest, UpdatesAreDeterministic) {
  auto run = [] {
    ml::KMeans km({.k = 4, .max_iters = 20, .seed = 9});
    auto ds = ClusteredData(64, 2, /*dim=*/64);
    EXPECT_TRUE(km.Fit(ContentsOf(ds, 64, 64)).ok());
    auto drift = ClusteredData(16, 77, /*dim=*/64);
    EXPECT_TRUE(km.PartialFit(ContentsOf(drift, 16, 64)).ok());
    return km.centroids();
  };
  ml::Matrix a = run();
  ml::Matrix b = run();
  EXPECT_TRUE(SameFloats(a, b));
}

// ---------------------------------------------------------------------
// Vae::PartialFit

TEST(VaePartialFitTest, WarmMiniBatchesAreDeterministicAndReal) {
  ml::VaeConfig vc;
  vc.input_dim = 64;
  vc.hidden_dim = 32;
  vc.latent_dim = 4;
  vc.seed = 7;
  ml::Vae a(vc), b(vc), untouched(vc);

  auto ds = ClusteredData(64, 2, /*dim=*/64);
  ml::Matrix data = ContentsOf(ds, 64, 64);
  ml::VaeTrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 16;
  a.Train(data, opts);
  b.Train(data, opts);
  untouched.Train(data, opts);

  auto drift = ClusteredData(32, 77, /*dim=*/64);
  ml::Matrix batch = ContentsOf(drift, 32, 64);
  const double fa = a.PartialFit(batch, /*batch_size=*/16);
  const double fb = b.PartialFit(batch, /*batch_size=*/16);
  EXPECT_GT(fa, 0.0);
  EXPECT_EQ(fa, fb);

  ml::Matrix probe = ContentsOf(drift, 8, 64);
  ml::Matrix za = a.EncodeMu(probe);
  ml::Matrix zb = b.EncodeMu(probe);
  EXPECT_TRUE(SameFloats(za, zb));
  // And the update is a real parameter change, not a no-op.
  ml::Matrix z0 = untouched.EncodeMu(probe);
  EXPECT_FALSE(SameFloats(za, z0));
}

TEST(VaePartialFitTest, EmptyBatchIsFree) {
  ml::VaeConfig vc;
  vc.input_dim = 16;
  vc.hidden_dim = 8;
  vc.latent_dim = 2;
  ml::Vae v(vc);
  ml::Matrix empty(0, 16);
  EXPECT_EQ(v.PartialFit(empty, 8), 0.0);
}

// ---------------------------------------------------------------------
// E2Model::PartialFit

TEST(E2ModelPartialFitTest, PreconditionAndDeterministicUpdates) {
  E2ModelConfig mc;
  mc.input_dim = 64;
  mc.k = 4;
  mc.hidden_dim = 32;
  mc.latent_dim = 4;
  mc.pretrain_epochs = 2;
  mc.finetune_rounds = 1;
  mc.kmeans_iters = 10;
  E2Model m(mc);
  EXPECT_TRUE(m.SupportsPartialFit());

  auto drift = ClusteredData(16, 77, /*dim=*/64);
  ml::Matrix batch = ContentsOf(drift, 16, 64);
  EXPECT_FALSE(m.PartialFit(batch).ok());  // Before Train.

  auto ds = ClusteredData(64, 2, /*dim=*/64);
  ml::Matrix train = ContentsOf(ds, 64, 64);
  ASSERT_TRUE(m.Train(train).ok());
  ml::Matrix narrow(2, 32);
  EXPECT_FALSE(m.PartialFit(narrow).ok());  // Wrong width.
  ASSERT_TRUE(m.PartialFit(batch).ok());
  EXPECT_GT(m.LastPartialFitFlops(), 0.0);

  // A twin model fed the identical sequence predicts identically.
  E2Model twin(mc);
  ASSERT_TRUE(twin.Train(train).ok());
  ASSERT_TRUE(twin.PartialFit(batch).ok());
  ml::InferenceScratch a, b;
  a.in = ContentsOf(drift, 8, 64);
  b.in = a.in;
  m.AssignScratch(&a);
  twin.AssignScratch(&b);
  EXPECT_EQ(a.clusters, b.clusters);
}

// ---------------------------------------------------------------------
// RetrainPolicy::Decide — the escalating drift detector.

RetrainPolicy::Config RefineConfig() {
  RetrainPolicy::Config c;
  c.min_free_per_cluster = 0;  // Capacity trigger off.
  c.window = 4;
  c.baseline_writes = 2;
  c.degradation_factor = 1.5;
  c.refine_interval = 2;
  c.max_refine_rounds = 2;
  return c;
}

void GoodWrites(RetrainPolicy& p, int n) {
  for (int i = 0; i < n; ++i) p.RecordWrite(1, 100);
}
void BadWrites(RetrainPolicy& p, int n) {
  for (int i = 0; i < n; ++i) p.RecordWrite(80, 100);
}

void FillHealthy(DynamicAddressPool& pool) {
  pool.Insert(0, 1);
  pool.Insert(0, 2);
  pool.Insert(1, 3);
  pool.Insert(1, 4);
}

TEST(RetrainPolicyDecideTest, EscalatesAfterMaxRefineRounds) {
  RetrainPolicy p(RefineConfig(), /*refine_enabled=*/true);
  DynamicAddressPool pool(2);
  FillHealthy(pool);

  GoodWrites(p, 2);  // Freezes a low baseline (0.01).
  EXPECT_EQ(p.Decide(pool), RetrainAction::kNone);  // Window not full.
  BadWrites(p, 4);  // Window now all-degraded.
  EXPECT_EQ(p.Decide(pool), RetrainAction::kRefine);
  p.OnRefine();
  EXPECT_EQ(p.refine_rounds(), 1u);
  // Right after a refine, the interval gates the next one.
  EXPECT_EQ(p.Decide(pool), RetrainAction::kNone);
  BadWrites(p, 2);
  EXPECT_EQ(p.Decide(pool), RetrainAction::kRefine);
  p.OnRefine();
  EXPECT_EQ(p.refine_rounds(), 2u);
  // max_refine_rounds consecutive refines without recovery: escalate.
  BadWrites(p, 2);
  EXPECT_EQ(p.Decide(pool), RetrainAction::kFullRetrain);
  p.OnRetrain();
  EXPECT_EQ(p.refine_rounds(), 0u);
  EXPECT_EQ(p.Decide(pool), RetrainAction::kNone);  // Fresh baseline.
}

TEST(RetrainPolicyDecideTest, RecoveryResetsTheEscalationCounter) {
  RetrainPolicy p(RefineConfig(), /*refine_enabled=*/true);
  DynamicAddressPool pool(2);
  FillHealthy(pool);

  GoodWrites(p, 2);
  BadWrites(p, 4);
  EXPECT_EQ(p.Decide(pool), RetrainAction::kRefine);
  p.OnRefine();
  EXPECT_EQ(p.refine_rounds(), 1u);
  // Refinement worked: the window ratio falls back under
  // kRecoveryFactor * baseline and the episode counter resets.
  GoodWrites(p, 4);
  EXPECT_EQ(p.Decide(pool), RetrainAction::kNone);
  EXPECT_EQ(p.refine_rounds(), 0u);
  // A later degradation starts a fresh episode (kRefine, not escalate).
  BadWrites(p, 4);
  EXPECT_EQ(p.Decide(pool), RetrainAction::kRefine);
}

TEST(RetrainPolicyDecideTest, CapacityTriggerAlwaysEscalates) {
  RetrainPolicy::Config c = RefineConfig();
  c.min_free_per_cluster = 2;
  RetrainPolicy p(c, /*refine_enabled=*/true);
  DynamicAddressPool pool(2);
  pool.Insert(0, 1);  // Cluster 0 free list below the threshold.
  pool.Insert(1, 2);
  pool.Insert(1, 3);
  // Refinement never rebuilds the DAP, so a starving cluster goes
  // straight to a full retrain — no window, no refine rounds needed.
  EXPECT_EQ(p.Decide(pool), RetrainAction::kFullRetrain);
}

TEST(RetrainPolicyDecideTest, OffModeNeverRefines) {
  RetrainPolicy p(RefineConfig(), /*refine_enabled=*/false);
  DynamicAddressPool pool(2);
  FillHealthy(pool);
  // Across baseline-freeze, degradation, and recovery, the stream the
  // refine-on tests escalate through: a degradation that would refine
  // there goes straight to a full retrain here, and nothing refines.
  std::vector<RetrainAction> got;
  auto decide = [&] { got.push_back(p.Decide(pool)); };
  for (int i = 0; i < 3; ++i) { GoodWrites(p, 1); decide(); }
  for (int i = 0; i < 6; ++i) { BadWrites(p, 1); decide(); }
  p.OnRetrain();
  decide();
  for (int i = 0; i < 3; ++i) { GoodWrites(p, 1); decide(); }
  // Filling the window, six degraded writes, and a fresh baseline.
  std::vector<RetrainAction> want(3, RetrainAction::kNone);
  want.insert(want.end(), 6, RetrainAction::kFullRetrain);
  want.insert(want.end(), 4, RetrainAction::kNone);
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------
// Engine-level determinism (the satellite contract): same seed =>
// byte-identical ring contents, refinement schedule, and predictions,
// across repeated runs.

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

struct DriftRun {
  std::vector<uint64_t> addrs;
  std::vector<size_t> probe_clusters;
  std::vector<uint64_t> ring_words;
  uint64_t ring_appends = 0;
  uint64_t refine_steps = 0;
  uint64_t retrains = 0;
  uint64_t background_retrains = 0;
  uint64_t model_generation = 0;
  double refine_flops = 0;
};

PlacementEngine::Config DriftEngineConfig(size_t max_refine_rounds) {
  PlacementEngine::Config ec;
  ec.auto_retrain = true;
  ec.retrain.window = 32;
  ec.retrain.baseline_writes = 16;
  ec.retrain.degradation_factor = 1.3;
  ec.retrain.min_free_per_cluster = 0;  // Isolate the efficiency trigger.
  ec.retrain.refine_interval = 8;
  ec.retrain.max_refine_rounds = max_refine_rounds;
  ec.incremental.enabled = true;
  ec.incremental.ring_capacity = 64;
  ec.incremental.refine_batch = 16;
  return ec;
}

/// Phase A traffic matching the seeded distribution, then phase B with
/// different prototypes — the Fig 17 drift scenario. `background` drains
/// any launched shadow training at its (deterministic) launch point so
/// swap points are reproducible.
DriftRun RunDriftWorkload(size_t max_refine_rounds, bool background) {
  Rig rig(std::make_unique<placement::RawKMeansClusterer>(
              4, /*seed=*/42, /*max_iters=*/20),
          DriftEngineConfig(max_refine_rounds));
  rig.SeedWith(ClusteredData(kSegments, 2));
  if (background) rig.engine->EnableBackgroundRetrain();
  EXPECT_TRUE(rig.engine->Bootstrap().ok());

  DriftRun out;
  std::deque<uint64_t> live;
  auto drive = [&](const workload::BitDataset& ds) {
    for (const auto& item : ds.items) {
      auto addr = rig.engine->Place(item);
      ASSERT_TRUE(addr.ok()) << addr.status().message();
      out.addrs.push_back(*addr);
      live.push_back(*addr);
      if (live.size() > kSegments / 2) {
        EXPECT_TRUE(rig.engine->Release(live.front()).ok());
        live.pop_front();
      }
      if (background) {
        while (rig.engine->RetrainInFlight()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        rig.engine->PumpBackgroundRetrain();
      }
    }
  };
  // Phase A shares the seed distribution (same prototypes => low flips,
  // low frozen baseline); phase B re-draws the prototypes — the drift.
  drive(ClusteredData(100, 2));
  auto phase_b = ClusteredData(200, 99);
  drive(phase_b);

  for (size_t i = 0; i < 8; ++i) {
    auto c = rig.engine->PredictClusterFor(phase_b.items[i]);
    EXPECT_TRUE(c.ok());
    out.probe_clusters.push_back(c.ok() ? *c : ~size_t{0});
  }
  const ReplayRing& ring = rig.engine->replay_ring();
  EXPECT_EQ(ring.capacity(), 64u);
  const ml::BitMatrix& raw = ring.raw();
  for (size_t i = 0; i < raw.rows(); ++i) {
    out.ring_words.insert(out.ring_words.end(), raw.Row(i),
                          raw.Row(i) + raw.row_words());
  }
  out.ring_appends = ring.total_appends();
  const EngineStats& st = rig.engine->stats();
  out.refine_steps = st.refine_steps;
  out.retrains = st.retrains;
  out.background_retrains = st.background_retrains;
  out.model_generation = rig.engine->model_generation();
  out.refine_flops = st.refine_flops;
  return out;
}

void ExpectSameRun(const DriftRun& a, const DriftRun& b) {
  EXPECT_EQ(a.addrs, b.addrs);
  EXPECT_EQ(a.probe_clusters, b.probe_clusters);
  EXPECT_EQ(a.ring_appends, b.ring_appends);
  EXPECT_EQ(a.refine_steps, b.refine_steps);
  EXPECT_EQ(a.retrains, b.retrains);
  EXPECT_EQ(a.background_retrains, b.background_retrains);
  EXPECT_EQ(a.model_generation, b.model_generation);
  EXPECT_EQ(a.refine_flops, b.refine_flops);
  EXPECT_EQ(a.ring_words, b.ring_words);
}

TEST(IncrementalEngineTest, DriftIsAbsorbedByRefinementSteps) {
  // A generous escalation budget: all drift must be handled inline.
  DriftRun run = RunDriftWorkload(/*max_refine_rounds=*/1000,
                                  /*background=*/false);
  EXPECT_GT(run.refine_steps, 0u);
  EXPECT_GT(run.refine_flops, 0.0);
  EXPECT_EQ(run.retrains, 0u);
  EXPECT_EQ(run.background_retrains, 0u);
  EXPECT_GT(run.ring_appends, 0u);
}

TEST(IncrementalEngineTest, RefinementIsDeterministicAcrossRuns) {
  DriftRun run1 = RunDriftWorkload(1000, /*background=*/false);
  DriftRun run2 = RunDriftWorkload(1000, /*background=*/false);
  ExpectSameRun(run1, run2);
  EXPECT_GT(run1.refine_steps, 0u);
}

TEST(IncrementalEngineTest, EscalationSwapsDeterministically) {
  // A tiny escalation budget under sustained drift: refinement steps run
  // first, then the policy escalates to a background full retrain whose
  // swap point (drained at launch) is reproducible.
  DriftRun a = RunDriftWorkload(/*max_refine_rounds=*/2,
                                /*background=*/true);
  EXPECT_GE(a.refine_steps, 2u);
  EXPECT_GE(a.background_retrains, 1u);
  EXPECT_GE(a.model_generation, 1u);

  DriftRun b = RunDriftWorkload(2, /*background=*/true);
  ExpectSameRun(a, b);
}

TEST(IncrementalEngineTest, OffModeKnobsAreInert) {
  // With incremental.enabled false, the ring/batch knobs must change
  // nothing: placements and the retrain schedule stay bit-identical to
  // the default-config engine (the fastpath/determinism anchor for §16).
  auto run = [](PlacementEngine::Config::Incremental inc) {
    PlacementEngine::Config ec;
    ec.auto_retrain = true;
    ec.retrain.window = 32;
    ec.retrain.baseline_writes = 16;
    ec.retrain.degradation_factor = 1.3;
    ec.incremental = inc;
    Rig rig(std::make_unique<placement::RawKMeansClusterer>(4, 42, 20), ec);
    rig.SeedWith(ClusteredData(kSegments, 2));
    EXPECT_TRUE(rig.engine->Bootstrap().ok());
    DriftRun out;
    std::deque<uint64_t> live;
    auto drive = [&](const workload::BitDataset& ds) {
      for (const auto& item : ds.items) {
        auto addr = rig.engine->Place(item);
        EXPECT_TRUE(addr.ok());
        out.addrs.push_back(addr.ok() ? *addr : ~uint64_t{0});
        live.push_back(out.addrs.back());
        if (live.size() > kSegments / 2) {
          EXPECT_TRUE(rig.engine->Release(live.front()).ok());
          live.pop_front();
        }
      }
    };
    drive(ClusteredData(60, 3));
    drive(ClusteredData(120, 99));
    out.refine_steps = rig.engine->stats().refine_steps;
    out.retrains = rig.engine->stats().retrains;
    out.ring_appends = rig.engine->replay_ring().capacity();  // Reused.
    return out;
  };

  DriftRun plain = run({});
  PlacementEngine::Config::Incremental tweaked;
  tweaked.enabled = false;
  tweaked.ring_capacity = 8;
  tweaked.refine_batch = 4;
  DriftRun off = run(tweaked);
  EXPECT_EQ(plain.addrs, off.addrs);
  EXPECT_EQ(plain.retrains, off.retrains);
  EXPECT_EQ(plain.refine_steps, 0u);
  EXPECT_EQ(off.refine_steps, 0u);
  // The ring is never even allocated when disabled.
  EXPECT_EQ(plain.ring_appends, 0u);
  EXPECT_EQ(off.ring_appends, 0u);
}

TEST(IncrementalEngineTest, FallsBackToFullRetrainsWithoutPartialFit) {
  // incremental.enabled with a clusterer that has no PartialFit
  // (DensityClusterer): refinement is derived off and the engine keeps
  // the full-retrain schedule instead of failing on kRefine.
  Rig rig(std::make_unique<placement::DensityClusterer>(4),
          DriftEngineConfig(/*max_refine_rounds=*/2));
  rig.SeedWith(ClusteredData(kSegments, 2));
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  std::deque<uint64_t> live;
  auto drive = [&](const workload::BitDataset& ds) {
    for (const auto& item : ds.items) {
      auto addr = rig.engine->Place(item);
      ASSERT_TRUE(addr.ok());
      live.push_back(*addr);
      if (live.size() > kSegments / 2) {
        ASSERT_TRUE(rig.engine->Release(live.front()).ok());
        live.pop_front();
      }
    }
  };
  drive(ClusteredData(100, 3));
  drive(ClusteredData(200, 99));
  EXPECT_EQ(rig.engine->stats().refine_steps, 0u);
}

TEST(IncrementalEngineTest, RetrainOffKeepsNoRing) {
  // Only a refine step reads the ring, and with auto_retrain off none
  // runs: an engine with incremental learning on allocates and feeds no
  // ring, and places exactly as with it off.
  struct Run {
    std::vector<uint64_t> addrs;
    uint64_t flips = 0;
    size_t ring_capacity = 0;
  };
  auto run = [](bool incremental) {
    PlacementEngine::Config ec = DriftEngineConfig(/*max_refine_rounds=*/2);
    ec.auto_retrain = false;
    ec.incremental.enabled = incremental;
    Rig rig(std::make_unique<placement::RawKMeansClusterer>(4, 42, 20), ec);
    rig.SeedWith(ClusteredData(kSegments, 2));
    EXPECT_TRUE(rig.engine->Bootstrap().ok());
    Run out;
    std::deque<uint64_t> live;
    const workload::BitDataset phases[] = {ClusteredData(60, 3),
                                           ClusteredData(120, 99)};
    for (const workload::BitDataset& ds : phases) {
      for (const auto& item : ds.items) {
        auto addr = rig.engine->Place(item);
        EXPECT_TRUE(addr.ok());
        out.addrs.push_back(addr.ok() ? *addr : ~uint64_t{0});
        live.push_back(out.addrs.back());
        if (live.size() > kSegments / 2) {
          EXPECT_TRUE(rig.engine->Release(live.front()).ok());
          live.pop_front();
        }
      }
    }
    out.flips = rig.device->stats().total_bits_flipped();
    out.ring_capacity = rig.engine->replay_ring().capacity();
    return out;
  };
  const Run on = run(/*incremental=*/true);
  const Run off = run(/*incremental=*/false);
  EXPECT_EQ(on.ring_capacity, 0u);
  EXPECT_EQ(on.addrs, off.addrs);
  EXPECT_EQ(on.flips, off.flips);
}

// ---------------------------------------------------------------------
// Store plumbing: StoreConfig knobs reach the engine and refinement runs
// end-to-end with the real E2Model (VAE + k-means PartialFit).

TEST(IncrementalStoreTest, StoreRefinesUnderDriftAndServesReads) {
  StoreConfig sc;
  sc.num_segments = 64;
  sc.segment_bits = 128;
  sc.model.k = 4;
  sc.model.hidden_dim = 32;
  sc.model.latent_dim = 4;
  sc.model.pretrain_epochs = 2;
  sc.model.finetune_rounds = 1;
  sc.model.kmeans_iters = 10;
  sc.auto_retrain = true;
  sc.retrain.window = 32;
  sc.retrain.baseline_writes = 16;
  sc.retrain.degradation_factor = 1.3;
  sc.retrain.min_free_per_cluster = 0;
  sc.retrain.refine_interval = 8;
  sc.retrain.max_refine_rounds = 1000;
  sc.incremental_learning = true;
  sc.replay_ring_capacity = 32;
  sc.refine_batch = 8;

  auto store_or = E2KvStore::Create(sc);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ClusteredData(64, 2, /*dim=*/128));
  ASSERT_TRUE(store->Bootstrap().ok());
  EXPECT_EQ(store->engine().replay_ring().capacity(), 32u);

  auto phase_a = ClusteredData(32, 2, /*dim=*/128);
  for (size_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(store->Put(i, phase_a.items[i]).ok());
  }
  auto phase_b = ClusteredData(64, 99, /*dim=*/128);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t i = 0; i < 32; ++i) {
      ASSERT_TRUE(store->Put(i, phase_b.items[r * 32 + i]).ok());
    }
  }
  EXPECT_GT(store->engine().stats().refine_steps, 0u);
  EXPECT_EQ(store->engine().stats().retrains, 0u);
  // Reads serve the latest values through the refined model's layout.
  for (size_t i = 0; i < 32; ++i) {
    auto got = store->Get(i);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, phase_b.items[32 + i]) << i;
  }
}

}  // namespace
}  // namespace e2nvm::core
