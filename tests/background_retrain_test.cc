// Background retraining (§4.1.4): shadow-model training off the write
// path, generation-counted swap, and the model-swap-under-load contract —
// foreground PUTs keep succeeding, with DAP invariants intact, while a
// retrain runs and completes.

#include "core/background_retrainer.h"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <future>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/e2_model.h"
#include "core/placement_engine.h"
#include "core/store.h"
#include "ml/matrix.h"
#include "placement/clusterer.h"
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

workload::BitDataset ClusteredData(size_t samples, uint64_t seed = 2) {
  workload::ProtoConfig cfg;
  cfg.dim = kBits;
  cfg.num_classes = 4;
  cfg.samples = samples;
  cfg.noise = 0.03;
  cfg.seed = seed;
  return workload::MakeProtoDataset(cfg);
}

/// A training snapshot of `rows` rows of `ds`, packed as the engine
/// takes one.
ml::BitMatrix ContentsOf(const workload::BitDataset& ds, size_t rows) {
  ml::BitMatrix m(rows, kBits);
  for (size_t i = 0; i < rows; ++i) {
    m.SetRow(i, ds.items[i % ds.items.size()].words().data());
  }
  return m;
}

void WaitUntilReady(BackgroundRetrainer& bg) {
  for (int i = 0; i < 10000 && !bg.ready(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(bg.ready()) << "background training never finished";
}

TEST(BackgroundRetrainerTest, TrainsAndClassifiesSnapshot) {
  BackgroundRetrainer bg;
  EXPECT_FALSE(bg.running());
  EXPECT_FALSE(bg.ready());
  EXPECT_FALSE(bg.TryCollect().has_value());

  auto ds = ClusteredData(64);
  std::vector<uint64_t> addrs(64);
  for (size_t i = 0; i < addrs.size(); ++i) addrs[i] = i;
  placement::RawKMeansClusterer proto(4, 42, 20);
  ASSERT_TRUE(bg.Start(proto.CloneUntrained(), ContentsOf(ds, 64),
                       std::move(addrs)));
  WaitUntilReady(bg);

  auto result = bg.TryCollect();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->status.ok());
  ASSERT_NE(result->model, nullptr);
  EXPECT_EQ(result->addrs.size(), 64u);
  EXPECT_EQ(result->clusters.size(), 64u);
  for (size_t c : result->clusters) EXPECT_LT(c, 4u);
  EXPECT_GT(result->train_flops, 0.0);
  EXPECT_GT(result->predict_flops, 0.0);
  EXPECT_FALSE(bg.ready());
}

/// Random 0/1 rows with density 0.3.
ml::Matrix RandomBits(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  ml::Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.NextBernoulli(0.3) ? 1.0f : 0.0f;
  return m;
}

bool SameBits(const ml::Matrix& a, const ml::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// E2Model::Train's whole output: every VAE parameter block (values,
/// gradients, Adam moments) and step count, the k-means centroids, the
/// learning curves and the flop count.
void ExpectSameModel(const E2Model& a, const E2Model& b) {
  const auto pa = a.vae().Params();
  const auto pb = b.vae().Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(SameBits(pa[i]->value, pb[i]->value)) << "block " << i;
    EXPECT_TRUE(SameBits(pa[i]->grad, pb[i]->grad)) << "block " << i;
    EXPECT_TRUE(SameBits(pa[i]->m, pb[i]->m)) << "block " << i;
    EXPECT_TRUE(SameBits(pa[i]->v, pb[i]->v)) << "block " << i;
  }
  EXPECT_EQ(a.vae().step(), b.vae().step());
  EXPECT_TRUE(SameBits(a.kmeans().centroids(), b.kmeans().centroids()));
  EXPECT_TRUE(SameBits(a.history().train_loss, b.history().train_loss));
  EXPECT_TRUE(SameBits(a.history().val_loss, b.history().val_loss));
  EXPECT_EQ(std::memcmp(&a.history().flops, &b.history().flops,
                        sizeof(a.history().flops)),
            0);
  EXPECT_EQ(a.LastTrainFlops(), b.LastTrainFlops());
}

TEST(BackgroundRetrainerTest, E2ModelTrainIsTheSameWhereverItRuns) {
  // A shard's shadow trains as one job on a lane worker; it must equal
  // the same training on the caller, bit for bit.
  const ml::Matrix x = RandomBits(256, 512, 13);
  E2ModelConfig mc;
  mc.input_dim = 512;
  mc.k = 6;
  mc.hidden_dim = 32;
  mc.pretrain_epochs = 2;
  mc.finetune_rounds = 1;

  E2Model on_caller(mc);
  ASSERT_TRUE(on_caller.Train(x).ok());

  E2Model on_worker(mc);
  std::promise<bool> trained;
  ThreadPool lane(1);  // Joined before the state its job uses goes.
  lane.Submit([&] { trained.set_value(on_worker.Train(x).ok()); });
  ASSERT_TRUE(trained.get_future().get());
  ExpectSameModel(on_caller, on_worker);
}

TEST(BackgroundRetrainerTest, RejectsOverlappingStarts) {
  BackgroundRetrainer bg;
  auto ds = ClusteredData(64);
  placement::RawKMeansClusterer proto(4, 42, 20);
  std::vector<uint64_t> addrs(64);
  for (size_t i = 0; i < addrs.size(); ++i) addrs[i] = i;
  ASSERT_TRUE(
      bg.Start(proto.CloneUntrained(), ContentsOf(ds, 64), addrs));
  // While running or pending-collect, further starts are refused.
  EXPECT_FALSE(
      bg.Start(proto.CloneUntrained(), ContentsOf(ds, 64), addrs));
  WaitUntilReady(bg);
  EXPECT_FALSE(
      bg.Start(proto.CloneUntrained(), ContentsOf(ds, 64), addrs));
  ASSERT_TRUE(bg.TryCollect().has_value());
  EXPECT_TRUE(
      bg.Start(proto.CloneUntrained(), ContentsOf(ds, 64), addrs));
  WaitUntilReady(bg);
  EXPECT_TRUE(bg.TryCollect().has_value());
}

TEST(BackgroundRetrainerTest, ReportsTrainingFailure) {
  BackgroundRetrainer bg;
  auto ds = ClusteredData(8);
  // 2 samples for k=4 clusters: Train must fail, model stays null.
  std::vector<uint64_t> addrs{0, 1};
  placement::RawKMeansClusterer proto(4, 42, 20);
  ASSERT_TRUE(
      bg.Start(proto.CloneUntrained(), ContentsOf(ds, 2), addrs));
  WaitUntilReady(bg);
  auto result = bg.TryCollect();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->status.ok());
  EXPECT_EQ(result->model, nullptr);
}

TEST(BackgroundRetrainerTest, UpdateGivesEachRowItsModelsCluster) {
  // An E2Model's ids come from its training's last encode, a baseline's
  // from AssignScratch over 64-row chunks (150 rows end in a partial
  // one): either way each snapshot row gets the id AssignScratch gives
  // it under the trained model, charged as one prediction per row.
  constexpr size_t kRows = 150;
  const auto ds = ClusteredData(kRows);
  ml::Matrix floats(kRows, kBits);
  for (size_t i = 0; i < kRows; ++i) ds.items[i].AppendFloatsTo(floats.Row(i));
  E2ModelConfig mc;
  mc.input_dim = kBits;
  mc.k = 4;
  mc.hidden_dim = 32;
  mc.pretrain_epochs = 2;
  std::vector<std::unique_ptr<placement::ContentClusterer>> protos;
  protos.push_back(std::make_unique<placement::SingleClusterer>());
  protos.push_back(std::make_unique<placement::DensityClusterer>(4));
  protos.push_back(std::make_unique<placement::RawKMeansClusterer>(4, 42));
  protos.push_back(std::make_unique<placement::PcaKMeansClusterer>(4, 8));
  protos.push_back(std::make_unique<E2Model>(mc));
  for (const auto& proto : protos) {
    SCOPED_TRACE(proto->name());
    std::vector<uint64_t> addrs(kRows);
    for (size_t i = 0; i < kRows; ++i) addrs[i] = 1000 + i;
    BackgroundRetrainer::Result update = BackgroundRetrainer::Train(
        proto->CloneUntrained(), ContentsOf(ds, kRows), addrs);
    ASSERT_TRUE(update.status.ok());
    EXPECT_EQ(update.addrs, addrs);
    ml::InferenceScratch scratch;
    scratch.in = floats;
    update.model->AssignScratch(&scratch);
    EXPECT_EQ(update.clusters, scratch.clusters);
    double predict_flops = 0;
    for (size_t i = 0; i < kRows; ++i) {
      predict_flops += update.model->PredictFlops();
    }
    EXPECT_EQ(update.predict_flops, predict_flops);
    EXPECT_EQ(update.train_flops, update.model->LastTrainFlops());
  }
}

TEST(BackgroundRetrainTest, EngineSwapsModelWithoutClientErrors) {
  PlacementEngine::Config ec;
  ec.auto_retrain = true;
  // Aggressive capacity trigger so the policy fires early in the run.
  ec.retrain.min_free_per_cluster = 24;
  Rig rig(std::make_unique<placement::RawKMeansClusterer>(4, 42, 20), ec);
  auto ds = ClusteredData(kSegments + 64);
  rig.SeedWith(ds);
  rig.engine->EnableBackgroundRetrain();
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  EXPECT_EQ(rig.engine->model_generation(), 0u);

  // Model-swap-under-load: issue PUT-shaped traffic (Place + periodic
  // Release) while shadow trainings start, run, and complete.
  std::vector<uint64_t> live;
  size_t placed = 0;
  std::set<uint64_t> live_set;
  for (size_t i = 0; i < 400; ++i) {
    auto addr = rig.engine->Place(ds.items[i % ds.items.size()]);
    ASSERT_TRUE(addr.ok()) << "Place " << i << ": "
                           << addr.status().ToString();
    EXPECT_TRUE(live_set.insert(*addr).second)
        << "address " << *addr << " double-allocated";
    live.push_back(*addr);
    ++placed;
    // DAP invariant: every segment is exactly live or free.
    ASSERT_EQ(rig.engine->pool().TotalFree() + live.size(), kSegments);
    if (live.size() > kSegments / 2) {
      uint64_t victim = live.front();
      live.erase(live.begin());
      live_set.erase(victim);
      ASSERT_TRUE(rig.engine->Release(victim).ok());
    }
    // Give the trainer a chance to finish so a swap happens mid-run.
    if (rig.engine->RetrainInFlight() && i % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  // Let any in-flight training finish, then adopt it explicitly.
  for (int i = 0; i < 10000 && rig.engine->RetrainInFlight(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rig.engine->PumpBackgroundRetrain();

  const EngineStats& stats = rig.engine->stats();
  EXPECT_GT(stats.background_retrains, 0u)
      << "no background retrain ever launched";
  EXPECT_GT(stats.retrains, 0u) << "no shadow model was ever adopted";
  EXPECT_GE(rig.engine->model_generation(), 1u);
  EXPECT_EQ(stats.placements, placed);
  EXPECT_EQ(rig.engine->pool().TotalFree() + live.size(), kSegments);

  // The swapped-in model must serve reads/placements: every live address
  // still holds the exact value that was placed there.
  EXPECT_EQ(rig.engine->pool().TotalFree(),
            kSegments - live.size());
}

bool ServingEncoderAligned(const PlacementEngine& engine) {
  const ml::Matrix& w = dynamic_cast<const E2Model&>(engine.clusterer())
                            .vae()
                            .encoder_weights();
  return reinterpret_cast<uintptr_t>(w.Row(0)) % 64 == 0;
}

TEST(BackgroundRetrainTest, ServingEncoderWeightsStayCacheLineAligned) {
  // Every PUT's encode streams the serving encoder's weight rows; they
  // must start on a cache line after the bootstrap Train, after a
  // shadow model swaps in, and after an engine refine step.
  E2ModelConfig mc;
  mc.input_dim = kBits;
  mc.k = 4;
  mc.hidden_dim = 64;
  mc.latent_dim = 4;
  mc.pretrain_epochs = 2;
  mc.finetune_rounds = 1;
  mc.kmeans_iters = 10;
  PlacementEngine::Config ec;
  ec.auto_retrain = true;
  ec.retrain.min_free_per_cluster = 24;
  Rig rig(std::make_unique<E2Model>(mc), ec);
  auto ds = ClusteredData(kSegments + 64);
  rig.SeedWith(ds);
  rig.engine->EnableBackgroundRetrain();
  ASSERT_TRUE(rig.engine->Bootstrap().ok());
  EXPECT_TRUE(ServingEncoderAligned(*rig.engine)) << "after Train";

  for (size_t i = 0; i < kSegments / 2 &&
                     rig.engine->model_generation() == 0;
       ++i) {
    ASSERT_TRUE(rig.engine->Place(ds.items[i]).ok()) << "Place " << i;
    for (int w = 0; w < 10000 && rig.engine->RetrainInFlight(); ++w) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rig.engine->PumpBackgroundRetrain();
  }
  ASSERT_GE(rig.engine->model_generation(), 1u) << "no shadow swapped in";
  EXPECT_TRUE(ServingEncoderAligned(*rig.engine)) << "after a shadow swap";

  // A refine step updates the serving model in place: drift the values
  // under incremental learning until one runs.
  StoreConfig sc;
  sc.num_segments = 64;
  sc.segment_bits = kBits;
  sc.model = mc;
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
  store->Seed(ClusteredData(64));
  ASSERT_TRUE(store->Bootstrap().ok());
  auto phase_a = ClusteredData(32);
  for (size_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(store->Put(i, phase_a.items[i]).ok());
  }
  auto phase_b = ClusteredData(96, /*seed=*/99);
  for (size_t i = 0;
       i < 96 && store->engine().stats().refine_steps == 0; ++i) {
    ASSERT_TRUE(store->Put(i % 32, phase_b.items[i]).ok());
  }
  ASSERT_GT(store->engine().stats().refine_steps, 0u) << "no refine step";
  EXPECT_EQ(store->engine().stats().retrains, 0u);
  EXPECT_TRUE(ServingEncoderAligned(store->engine()))
      << "after a refine step";
}

bool SameFloats(const ml::Matrix& a, const ml::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

TEST(BackgroundRetrainTest, SynchronousRetrainEqualsDrainedShadow) {
  // One model update, two ways to run it. Both engines get the same
  // stream; the shadow is drained and adopted right after the Place that
  // launched it, before the next Release, so it trains on the snapshot
  // a synchronous retrain trains on and is adopted over that same free
  // set. Placements, free lists, model bits and counters must be equal.
  // Only the charges name the path: the shadow adds its snapshot
  // classification to train_flops and CPU energy, and only the
  // synchronous retrain advances the clock (by its training).
  E2ModelConfig mc;
  mc.input_dim = kBits;
  mc.k = 4;
  mc.hidden_dim = 64;
  mc.latent_dim = 4;
  mc.pretrain_epochs = 2;
  mc.finetune_rounds = 1;
  mc.kmeans_iters = 10;
  PlacementEngine::Config ec;
  ec.auto_retrain = true;
  ec.retrain.min_free_per_cluster = 12;
  Rig sync(std::make_unique<E2Model>(mc), ec);
  Rig shadow(std::make_unique<E2Model>(mc), ec);
  auto ds = ClusteredData(kSegments + 64);
  sync.SeedWith(ds);
  shadow.SeedWith(ds);
  shadow.engine->EnableBackgroundRetrain();
  ASSERT_TRUE(sync.engine->Bootstrap().ok());
  ASSERT_TRUE(shadow.engine->Bootstrap().ok());
  const double bootstrap_flops = sync.engine->stats().train_flops;

  // The shadows' snapshot classifications: one prediction per segment
  // free when the retrain fired, summed as the retrainer sums them.
  double classify_flops = 0;
  constexpr size_t kLive = 16;  // Keys held; the rest are released.
  std::deque<uint64_t> live;
  for (size_t i = 0; i < 400; ++i) {
    const BitVector& value = ds.items[(i * 7) % ds.items.size()];
    const uint64_t retrains = sync.engine->stats().retrains;
    auto a = sync.engine->Place(value);
    auto b = shadow.engine->Place(value);
    ASSERT_TRUE(a.ok()) << "op " << i << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << "op " << i << ": " << b.status().ToString();
    ASSERT_EQ(*a, *b) << "op " << i;
    for (int w = 0; w < 10000 && shadow.engine->RetrainInFlight(); ++w) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    shadow.engine->PumpBackgroundRetrain();
    ASSERT_EQ(shadow.engine->stats().retrains,
              sync.engine->stats().retrains)
        << "op " << i;
    if (sync.engine->stats().retrains != retrains) {
      double update = 0;
      for (size_t r = 0; r < sync.engine->pool().TotalFree(); ++r) {
        update += shadow.engine->clusterer().PredictFlops();
      }
      classify_flops += update;
    }
    live.push_back(*a);
    if (live.size() > kLive) {
      ASSERT_TRUE(sync.engine->Release(live.front()).ok());
      ASSERT_TRUE(shadow.engine->Release(live.front()).ok());
      live.pop_front();
    }
  }
  ASSERT_GE(sync.engine->stats().retrains, 2u) << "too few retrains";

  for (size_t c = 0; c < mc.k; ++c) {
    const FreeList& x = sync.engine->pool().free_list(c);
    const FreeList& y = shadow.engine->pool().free_list(c);
    ASSERT_EQ(x.size(), y.size()) << "cluster " << c;
    for (size_t j = 0; j < x.size(); ++j) {
      EXPECT_EQ(x[j], y[j]) << "cluster " << c << " entry " << j;
    }
  }
  const auto& ms = dynamic_cast<const E2Model&>(sync.engine->clusterer());
  const auto& mb = dynamic_cast<const E2Model&>(shadow.engine->clusterer());
  const auto ps = ms.vae().Params();
  const auto pb = mb.vae().Params();
  ASSERT_EQ(ps.size(), pb.size());
  for (size_t j = 0; j < ps.size(); ++j) {
    EXPECT_TRUE(SameFloats(ps[j]->value, pb[j]->value)) << "param " << j;
  }
  EXPECT_TRUE(SameFloats(ms.kmeans().centroids(), mb.kmeans().centroids()));

  EngineStats expected = sync.engine->stats();
  const EngineStats& got = shadow.engine->stats();
  EXPECT_EQ(expected.background_retrains, 0u);
  EXPECT_EQ(got.background_retrains, got.retrains);
  EXPECT_EQ(got.swap_repredictions, 0u);
  const double retrain_flops = expected.train_flops - bootstrap_flops;
  EXPECT_NEAR(got.train_flops - expected.train_flops, classify_flops,
              1e-9 * got.train_flops);
  expected.background_retrains = got.background_retrains;
  expected.train_flops = got.train_flops;
  EXPECT_EQ(expected, got);

  const nvm::EnergyModel& em = sync.device->energy_model();
  const nvm::EnergyTotals es = sync.device->meter().Snapshot();
  const nvm::EnergyTotals eb = shadow.device->meter().Snapshot();
  for (int d = 0; d < nvm::kNumEnergyDomains; ++d) {
    if (d == static_cast<int>(nvm::EnergyDomain::kCpuModel)) continue;
    EXPECT_EQ(es.pj[d], eb.pj[d]) << "domain " << d;
  }
  const double cpu_s = es.DomainPj(nvm::EnergyDomain::kCpuModel);
  const double cpu_b = eb.DomainPj(nvm::EnergyDomain::kCpuModel);
  EXPECT_NEAR(cpu_b - cpu_s, em.CpuPj(classify_flops), 1e-9 * cpu_b);
  EXPECT_NEAR(es.now_ns - eb.now_ns, em.CpuNs(retrain_flops),
              1e-9 * es.now_ns);
}

TEST(BackgroundRetrainTest, FailedShadowTrainingBacksOff) {
  PlacementEngine::Config ec;
  ec.auto_retrain = true;
  ec.retrain.min_free_per_cluster = 2;
  // k > free segments.
  Rig rig(std::make_unique<placement::RawKMeansClusterer>(64, 42, 10), ec);
  auto ds = ClusteredData(kSegments);
  rig.SeedWith(ds);
  rig.engine->EnableBackgroundRetrain();
  ASSERT_TRUE(rig.engine->Bootstrap().ok());

  // Consume most of the pool. Once AllFree() < num_clusters (64), every
  // launch attempt hits the same FailedPrecondition as the synchronous
  // path and must start the exponential backoff instead of crashing or
  // spinning — while the Places themselves keep succeeding.
  for (size_t i = 0; i < kSegments - 32; ++i) {
    ASSERT_TRUE(rig.engine->Place(ds.items[i % ds.items.size()]).ok());
  }
  // A training launched while the pool was still big may be in flight;
  // drain and adopt it so the next policy firing sees the starved pool.
  for (int i = 0; i < 10000 && rig.engine->RetrainInFlight(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rig.engine->PumpBackgroundRetrain();
  for (size_t i = 0; i < 8 && rig.engine->stats().failed_retrains == 0;
       ++i) {
    ASSERT_TRUE(rig.engine->Place(ds.items[i % ds.items.size()]).ok());
  }
  EXPECT_GT(rig.engine->stats().failed_retrains, 0u);
}

TEST(BackgroundRetrainTest, StoreServesPutsDuringBackgroundRetrain) {
  StoreConfig sc;
  sc.num_segments = 128;
  sc.segment_bits = 256;
  sc.model.k = 4;
  sc.model.pretrain_epochs = 2;
  sc.model.finetune_rounds = 1;
  sc.background_retrain = true;
  sc.retrain.min_free_per_cluster = 16;
  auto store_or = E2KvStore::Create(sc);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);

  workload::ProtoConfig pc;
  pc.dim = 256;
  pc.num_classes = 4;
  pc.samples = 256;
  pc.seed = 9;
  auto ds = workload::MakeProtoDataset(pc);
  store->Seed(ds);
  ASSERT_TRUE(store->Bootstrap().ok());

  for (uint64_t key = 0; key < 300; ++key) {
    ASSERT_TRUE(store->Put(key % 60, ds.items[key % ds.items.size()]).ok())
        << "PUT " << key;
  }
  // Zero client-visible errors and intact reads across any swap.
  for (uint64_t key = 0; key < 60; ++key) {
    auto got = store->Get(key);
    ASSERT_TRUE(got.ok());
  }
  EXPECT_EQ(store->engine().stats().model_fallbacks, 0u);
}

}  // namespace
}  // namespace e2nvm::core
