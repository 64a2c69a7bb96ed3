// Google-benchmark microbenchmarks for the hot operations on E2-NVM's
// critical path: Hamming distance, write-scheme encoding, VAE encoding,
// K-means prediction, and a full Place() (predict + DAP + differential
// write). These are the per-operation latencies behind the prediction
// overhead discussed with Figs 4 and 10. Two more time the model's
// maintenance: a 64-row VAE training step (the unit of a full retrain)
// and an 8-row PartialFit (a §16 refine step).
//
// The binary also runs a store-level ops benchmark and writes the results
// to BENCH_ops.json (machine-readable): PUT/GET/DELETE ops/s with
// synchronous versus background retraining (the JSON keeps the latter's
// historic key, pooled_background_retrain: every ML kernel now runs on
// its caller), an incremental-learning section (§16 replay-ring
// refinement under a drifting PUT stream, with the steady-state tail
// and refine-step counters), a batched (MultiPut) PUT section, the
// median bootstrap training (E2Model::Train) at perfbench's two set-up
// geometries, p50/p99/p99.9/max PUT and p50/p99/p99.9 GET latency (the
// same tail grid as the serving benchmark's BENCH_net.json, so
// store-level and wire-level tails line up), and heap allocations per
// PUT on the calling thread. Pass
// --benchmark_filter to control the microbenchmarks as usual; the JSON
// section always runs. Set E2NVM_OPS_SMOKE=1 for a shortened pass (used
// by scripts/check.sh as a perf smoke test).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "bench/bench_util.h"
#include "common/kernels.h"
#include "core/sharded_store.h"
#include "core/store.h"
#include "placement/clusterer.h"

// --- Heap-allocation accounting -------------------------------------
//
// Thread-local so the background retrainer's (deliberately allocating)
// training does not pollute the write-path numbers: we only count
// allocations made by the thread issuing the PUTs.
namespace {
thread_local uint64_t t_alloc_count = 0;

/// Heap blocks plus Matrix storage's mapped blocks (ml/matrix.h), which
/// bypass operator new, allocated by this thread so far.
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

namespace e2nvm {
namespace {

bool SmokeMode() {
  const char* v = std::getenv("E2NVM_OPS_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

void BM_HammingDistance(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  Rng rng(1);
  BitVector a(bits), b(bits);
  a.Randomize(rng);
  b.Randomize(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.HammingDistance(b));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bits / 8));
}
BENCHMARK(BM_HammingDistance)->Arg(512)->Arg(2048)->Arg(16384);

void BM_SchemeWrite(benchmark::State& state) {
  static const char* kNames[] = {"DCW", "FNW", "MinShift", "Captopril"};
  auto scheme = schemes::MakeScheme(kNames[state.range(0)]);
  Rng rng(2);
  BitVector cells(2048), data(2048);
  cells.Randomize(rng);
  for (auto _ : state) {
    data.Randomize(rng);
    auto r = scheme->Write(0, cells, data);
    cells = r.stored;
    benchmark::DoNotOptimize(r.data_bits_flipped);
  }
  state.SetLabel(kNames[state.range(0)]);
}
BENCHMARK(BM_SchemeWrite)->DenseRange(0, 3);

/// Distinct write-path inputs for the encode benchmark, one staged row
/// each: featurized 0/1 values, each a class prototype with 5% of its
/// bits flipped, like the values a PUT encodes. A rotation of many rows
/// keeps the encoder's zero skip from being learned by the branch
/// predictor (a single repeated row, or one without zeros, never pays
/// for it) and makes each call read a fresh input, as a PUT does.
std::vector<ml::Matrix> EncodeInputs(size_t dim) {
  workload::ProtoConfig pc;
  pc.dim = dim;
  pc.num_classes = 8;
  pc.samples = 256;
  pc.noise = 0.05;
  pc.seed = 5;
  const auto ds = workload::MakeProtoDataset(pc);
  std::vector<ml::Matrix> rows;
  for (const auto& item : ds.items) rows.emplace_back(1, dim, item.ToFloats());
  return rows;
}

ml::VaeConfig EncodeBenchConfig(size_t dim) {
  ml::VaeConfig cfg;
  cfg.input_dim = dim;
  cfg.hidden_dim = 64;
  cfg.latent_dim = 10;
  return cfg;
}

void BM_VaeEncodeScratch(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  ml::Vae vae(EncodeBenchConfig(dim));
  const std::vector<ml::Matrix> rows = EncodeInputs(dim);
  ml::Matrix hidden, mu;
  size_t i = 0;
  for (auto _ : state) {
    vae.EncodeMuInto(rows[i++ % rows.size()], &hidden, &mu);
    benchmark::DoNotOptimize(mu.data().data());
  }
}
BENCHMARK(BM_VaeEncodeScratch)->Arg(512)->Arg(2048)->Arg(8192);

/// `rows` consecutive EncodeInputs rows from `first` (wrapping), as one
/// training batch.
ml::Matrix TrainBatchOf(const std::vector<ml::Matrix>& inputs, size_t first,
                        size_t rows) {
  ml::Matrix batch(rows, inputs[0].cols());
  for (size_t r = 0; r < rows; ++r) {
    batch.CopyRowFrom(inputs[(first + r) % inputs.size()], 0, r);
  }
  return batch;
}

/// One 64-row training step (forward, backward, Adam) at the encode
/// benchmark's geometry: the unit of a full retrain (E2Model::Train runs
/// one per 64 seeded segments, per epoch). The second argument asks for
/// the step's losses, as Vae::Train's history does; fine-tuning and
/// refine steps skip them.
void BM_VaeTrainBatch(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool with_loss = state.range(1) != 0;
  ml::Vae vae(EncodeBenchConfig(dim));
  const ml::Matrix batch = TrainBatchOf(EncodeInputs(dim), 0, 64);
  const ml::VaeTrainOptions opts;
  ml::Vae::BatchLoss loss;
  for (auto _ : state) {
    vae.TrainBatch(batch, opts, with_loss ? &loss : nullptr);
    benchmark::DoNotOptimize(loss.recon);
  }
}
BENCHMARK(BM_VaeTrainBatch)->ArgsProduct({{512, 2048}, {0, 1}});

/// One refine step's VAE half (§16): PartialFit on an 8-row replay-ring
/// window at 512 bits, the window sliding by one row per call.
void BM_VaePartialFit(benchmark::State& state) {
  constexpr size_t kDim = 512;
  constexpr size_t kRows = 8;
  ml::Vae vae(EncodeBenchConfig(kDim));
  const std::vector<ml::Matrix> inputs = EncodeInputs(kDim);
  std::vector<ml::Matrix> windows;
  for (size_t i = 0; i < inputs.size(); ++i) {
    windows.push_back(TrainBatchOf(inputs, i, kRows));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vae.PartialFit(windows[i++ % windows.size()], kRows));
  }
}
BENCHMARK(BM_VaePartialFit);

void BM_KMeansPredict(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(3);
  ml::Matrix data(64, dim);
  for (auto& v : data.data()) v = rng.NextFloat();
  ml::KMeans km({.k = 20, .max_iters = 5, .seed = 1});
  if (!km.Fit(data).ok()) return;
  std::vector<float> probe(dim, 0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(km.Predict(probe.data(), dim));
  }
}
BENCHMARK(BM_KMeansPredict)->Arg(10)->Arg(512)->Arg(8192);

void BM_EnginePlace(benchmark::State& state) {
  constexpr size_t kSegments = 128;
  constexpr size_t kBits = 512;
  static schemes::Dcw dcw;
  bench::Rig rig(kSegments, kBits, 0, &dcw);
  workload::ProtoConfig pc;
  pc.dim = kBits;
  pc.num_classes = 4;
  pc.samples = kSegments + 64;
  pc.seed = 4;
  auto ds = workload::MakeProtoDataset(pc);
  rig.SeedFrom(ds);
  auto engine = bench::MakeEngine(
      rig, std::make_unique<placement::RawKMeansClusterer>(4, 42, 20));
  size_t i = 0;
  std::vector<uint64_t> live;
  for (auto _ : state) {
    auto addr = engine->Place(ds.items[i++ % ds.items.size()]);
    if (addr.ok()) {
      live.push_back(*addr);
    }
    if (!live.empty()) {
      engine->Release(live.back());
      live.pop_back();
    }
  }
}
BENCHMARK(BM_EnginePlace);

// --- Store-level ops benchmark -> BENCH_ops.json ---

struct OpsResult {
  double put_ops_s = 0;
  double get_ops_s = 0;
  double delete_ops_s = 0;
  double put_p50_us = 0;
  double put_p99_us = 0;
  double put_p999_us = 0;
  double put_max_us = 0;
  double get_p50_us = 0;
  double get_p99_us = 0;
  double get_p999_us = 0;
  double alloc_per_put = 0;  // Whole PUT loop (back-compat headline).
  // Attribution of alloc_per_put (see RunOpsBench): one-off warm-up
  // inserts, retrain epochs, shadow adoptions, refinement steps, and the
  // residual steady state — the steady figure is the one that must be 0.
  double alloc_per_put_steady = 0;
  uint64_t warmup_allocs = 0;
  uint64_t retrain_allocs = 0;
  uint64_t adoption_allocs = 0;
  uint64_t refine_allocs = 0;
  // Worst PUT outside the warm-up inserts and full-retrain epochs —
  // refinement steps included, since with incremental learning on they
  // ARE the steady-state drift answer (§16: this is the figure the
  // "retrain tail" work drives under 1 ms; put_max_us keeps covering
  // every put including the retrain epochs).
  double put_max_us_steady = 0;
  // EngineStats::retrains counts synchronous retrains and adopted shadows
  // (models trained in the background) alike; these split it.
  uint64_t sync_retrains = 0;
  uint64_t adopted_shadows = 0;
  uint64_t background_retrains = 0;
  uint64_t refine_steps = 0;
};

/// Fills `r`'s retrain counters from the engine's.
void CountRetrains(const core::PlacementEngine& engine, OpsResult* r) {
  r->adopted_shadows = engine.model_generation();
  r->sync_retrains = engine.stats().retrains - r->adopted_shadows;
  r->background_retrains = engine.stats().background_retrains;
}

struct OpsParams {
  size_t segments = 256;
  size_t bits = 512;
  uint64_t keys = 96;
  // Long enough that the timed PUT region spans tens of milliseconds on
  // one core: background trainings timeslice against the foreground, so
  // a short region turns each section's figure into a coin flip on
  // whether a training overlapped it.
  uint64_t puts = 6000;
  uint64_t gets = 12000;
  size_t batch = 32;  // MultiPut batch size for the batched section.
};

OpsParams MakeParams() {
  OpsParams p;
  if (SmokeMode()) {
    p.puts = 400;
    p.gets = 800;
  }
  return p;
}

std::unique_ptr<core::E2KvStore> MakeOpsStore(const OpsParams& p,
                                              bool background_retrain,
                                              workload::BitDataset* ds,
                                              bool incremental = false) {
  core::StoreConfig sc;
  sc.num_segments = p.segments;
  sc.segment_bits = p.bits;
  sc.model = bench::DefaultModel(p.bits, 4);
  sc.model.pretrain_epochs = 2;
  sc.auto_retrain = true;
  sc.background_retrain = background_retrain;
  sc.retrain.min_free_per_cluster = 8;
  if (incremental) {
    // §16: drift is answered with inline replay-ring refinement steps; a
    // generous escalation budget keeps full retrains down to the
    // capacity trigger (which refinement can never serve). The policy
    // window is shortened so the efficiency trigger reacts within a
    // drift phase (the default 256-write window spans most of the smoke
    // run), and the capacity floor is relaxed so the drift detector —
    // the §16 mechanism this section measures — acts before the pool
    // runs dry; every full retrain that still fires is reported.
    sc.incremental_learning = true;
    sc.replay_ring_capacity = 256;
    // 6 rows keeps one inline VAE mini-batch comfortably under the 1 ms
    // steady-tail budget on a single 2.1 GHz core (~0.75 ms measured).
    sc.refine_batch = 6;
    sc.retrain.window = 64;
    sc.retrain.baseline_writes = 32;
    sc.retrain.min_free_per_cluster = 4;
    sc.retrain.refine_interval = 8;
    sc.retrain.max_refine_rounds = 64;
  }
  auto store_or = core::E2KvStore::Create(sc);
  if (!store_or.ok()) std::abort();
  auto store = std::move(*store_or);

  workload::ProtoConfig pc;
  pc.dim = p.bits;
  pc.num_classes = 4;
  pc.samples = p.segments + 64;
  pc.seed = 7;
  *ds = workload::MakeProtoDataset(pc);
  store->Seed(*ds);
  if (!store->Bootstrap().ok()) std::abort();
  return store;
}

/// One full PUT/GET/DELETE pass over a store with either synchronous or
/// background retraining. With
/// `incremental` the store runs the §16 replay-ring refinement pipeline
/// and the PUT stream drifts (prototypes re-drawn twice, like the
/// workload sweep's drift scenario) so the drift detector actually has
/// something to refine against.
OpsResult RunOpsBench(bool background_retrain, bool incremental = false) {
  using Clock = std::chrono::steady_clock;
  const OpsParams p = MakeParams();
  workload::BitDataset ds;
  auto store = MakeOpsStore(p, background_retrain, &ds, incremental);

  // Drift phases for the incremental section: same geometry, re-drawn
  // class prototypes (the Fig 17 drift scenario). Phase 0 reuses the
  // seeded dataset so the frozen efficiency baseline is honest.
  workload::BitDataset drift[2];
  if (incremental) {
    workload::ProtoConfig pc;
    pc.dim = p.bits;
    pc.num_classes = 4;
    pc.samples = p.segments + 64;
    pc.seed = 17;
    drift[0] = workload::MakeProtoDataset(pc);
    pc.seed = 29;
    drift[1] = workload::MakeProtoDataset(pc);
  }
  auto value_at = [&](uint64_t i) -> const BitVector& {
    if (incremental && i >= p.puts / 3) {
      const workload::BitDataset& d =
          i >= 2 * p.puts / 3 ? drift[1] : drift[0];
      return d.items[i % d.items.size()];
    }
    return ds.items[i % ds.items.size()];
  };

  OpsResult r;
  // PUTs (inserts + updates), timed per-op so retrain stalls land in the
  // tail of this distribution. The thread-local allocation counter spans
  // the same loop: with synchronous retraining the (allocating) rebuilds
  // run on this thread and show up in alloc_per_put; with background
  // retraining only the write path itself is counted.
  //
  // Each PUT's allocation delta is attributed to one bucket:
  //  - warm-up: the first insertion of every key grows the index and the
  //    scratch buffers/rings to working size (first p.keys puts);
  //  - adoption: a put that adopted a shadow model (model_generation
  //    moves) rebuilds the DAP around it;
  //  - retrain: a put during which a synchronous retrain ran or a
  //    background one launched or failed (epoch below moves) gathers a
  //    training snapshot — allocating, by design, one-off work;
  //  - refine: a put that carried an inline refinement step;
  //  - steady: everything else. THE steady-state write path — must be 0,
  //    and alloc_per_put_steady in BENCH_ops.json pins it.
  std::vector<double> put_us;
  put_us.reserve(p.puts);
  uint64_t warmup_allocs = 0, retrain_allocs = 0, adoption_allocs = 0;
  uint64_t refine_allocs = 0;
  uint64_t steady_allocs = 0;
  uint64_t steady_puts = 0;
  double steady_max_us = 0;
  auto retrain_epoch = [&] {
    const auto& st = store->engine().stats();
    return st.retrains + st.background_retrains + st.failed_retrains;
  };
  uint64_t alloc0 = Allocations();
  auto t0 = Clock::now();
  for (uint64_t i = 0; i < p.puts; ++i) {
    const uint64_t a0 = Allocations();
    const uint64_t e0 = retrain_epoch();
    const uint64_t g0 = store->engine().model_generation();
    const uint64_t f0 = store->engine().stats().refine_steps;
    auto op0 = Clock::now();
    if (!store->Put(i % p.keys, value_at(i)).ok()) {
      std::abort();
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - op0)
            .count();
    put_us.push_back(us);
    const uint64_t d = Allocations() - a0;
    if (i < p.keys) {
      warmup_allocs += d;
    } else if (store->engine().model_generation() != g0) {
      adoption_allocs += d;
    } else if (retrain_epoch() != e0) {
      retrain_allocs += d;
    } else if (store->engine().stats().refine_steps != f0) {
      // A PUT that carried an inline refinement step: part of the §16
      // steady state for the latency headline (it IS the drift answer),
      // but its allocations are their own bucket (0 once PartialFit's
      // workspace is warm) so alloc_per_put_steady keeps pinning the
      // pure write path at 0.
      refine_allocs += d;
      steady_max_us = std::max(steady_max_us, us);
    } else {
      steady_allocs += d;
      ++steady_puts;
      steady_max_us = std::max(steady_max_us, us);
    }
  }
  double put_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.alloc_per_put =
      static_cast<double>(Allocations() - alloc0) / p.puts;
  r.warmup_allocs = warmup_allocs;
  r.retrain_allocs = retrain_allocs;
  r.adoption_allocs = adoption_allocs;
  r.refine_allocs = refine_allocs;
  r.put_max_us_steady = steady_max_us;
  r.alloc_per_put_steady =
      steady_puts > 0 ? static_cast<double>(steady_allocs) / steady_puts
                      : 0.0;
  const bench::TailStats put_tail =
      bench::SummarizeLatencies(put_us, put_s, p.puts);
  r.put_ops_s = put_tail.ops_s;
  r.put_p50_us = put_tail.p50_us;
  r.put_p99_us = put_tail.p99_us;
  r.put_p999_us = put_tail.p999_us;
  r.put_max_us = put_tail.max_us;

  // Let any in-flight background retrain finish before timing reads, so
  // the GET figure measures the steady state rather than contention with
  // the trainer for the cores (on a 1-core box that contention halves
  // read throughput and says nothing about the read path itself).
  while (store->engine().RetrainInFlight()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // GETs, timed per-op like the PUTs so the read tail (p99.9 — swap
  // repredictions, allocator hiccups) is visible next to the serving
  // benchmark's (BENCH_net). One clock read per op: each op's end stamp
  // is the next op's start.
  std::vector<double> get_us;
  get_us.reserve(p.gets);
  t0 = Clock::now();
  auto prev = t0;
  for (uint64_t i = 0; i < p.gets; ++i) {
    if (!store->Get(i % p.keys).ok()) std::abort();
    const auto now = Clock::now();
    get_us.push_back(
        std::chrono::duration<double, std::micro>(now - prev).count());
    prev = now;
  }
  const bench::TailStats get_tail = bench::SummarizeLatencies(
      get_us, std::chrono::duration<double>(Clock::now() - t0).count(),
      p.gets);
  r.get_ops_s = get_tail.ops_s;
  r.get_p50_us = get_tail.p50_us;
  r.get_p99_us = get_tail.p99_us;
  r.get_p999_us = get_tail.p999_us;

  t0 = Clock::now();
  for (uint64_t key = 0; key < p.keys; ++key) {
    if (!store->Delete(key).ok()) std::abort();
  }
  r.delete_ops_s =
      p.keys / std::chrono::duration<double>(Clock::now() - t0).count();

  CountRetrains(store->engine(), &r);
  r.refine_steps = store->engine().stats().refine_steps;
  return r;
}

/// Batched write path: the same PUT stream issued through MultiPut in
/// groups of `p.batch` (one encoder GEMV per value + one fused
/// assignment per group). Batches are materialized before the timed
/// region so the numbers cover the store, not benchmark bookkeeping.
OpsResult RunBatchedBench(bool background_retrain) {
  using Clock = std::chrono::steady_clock;
  const OpsParams p = MakeParams();
  workload::BitDataset ds;
  auto store = MakeOpsStore(p, background_retrain, &ds);

  std::vector<std::vector<std::pair<uint64_t, BitVector>>> batches;
  for (uint64_t i = 0; i < p.puts;) {
    std::vector<std::pair<uint64_t, BitVector>> kvs;
    for (size_t j = 0; j < p.batch && i < p.puts; ++j, ++i) {
      kvs.emplace_back(i % p.keys, ds.items[i % ds.items.size()]);
    }
    batches.push_back(std::move(kvs));
  }

  // alloc_per_put here is the *steady-state write path*: the warm-up
  // batches (first insertion of each key in the universe grows the
  // index and the scratch buffers/rings to working size) and any batch
  // during which a retrain launched or was adopted (gathering the
  // training snapshot / rebuilding the DAP allocates, by design, on the
  // calling thread) are excluded from the allocation accounting — they
  // are one-off events, not per-PUT cost. Throughput still covers the
  // whole stream, retrains included.
  OpsResult r;
  uint64_t steady_allocs = 0;
  uint64_t steady_puts = 0;
  const size_t warmup_batches = (p.keys + p.batch - 1) / p.batch;
  auto retrain_epoch = [&] {
    const auto& st = store->engine().stats();
    return st.retrains + st.background_retrains + st.failed_retrains;
  };
  auto t0 = Clock::now();
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const uint64_t a0 = Allocations();
    const uint64_t e0 = retrain_epoch();
    if (!store->MultiPut(batches[bi]).ok()) std::abort();
    if (bi >= warmup_batches && retrain_epoch() == e0) {
      steady_allocs += Allocations() - a0;
      steady_puts += batches[bi].size();
      if (Allocations() != a0 &&
          std::getenv("E2NVM_OPS_DEBUG") != nullptr) {
        std::fprintf(stderr, "[batched] batch %zu allocated %llu\n", bi,
                     (unsigned long long)(Allocations() - a0));
      }
    }
  }
  double put_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.put_ops_s = p.puts / put_s;
  r.alloc_per_put = steady_puts > 0
                        ? static_cast<double>(steady_allocs) / steady_puts
                        : 0.0;
  CountRetrains(store->engine(), &r);
  if (std::getenv("E2NVM_OPS_DEBUG") != nullptr) {
    const auto& st = store->engine().stats();
    std::fprintf(stderr,
                 "[batched] placements=%llu retrains=%llu bg=%llu "
                 "fallback=%llu swap_repred=%llu rel_hits=%llu "
                 "releases=%llu predict_flops=%.3g train_flops=%.3g\n",
                 (unsigned long long)st.placements,
                 (unsigned long long)st.retrains,
                 (unsigned long long)st.background_retrains,
                 (unsigned long long)st.fallback_placements,
                 (unsigned long long)st.swap_repredictions,
                 (unsigned long long)st.release_cluster_hits,
                 (unsigned long long)st.releases, st.predict_flops,
                 st.train_flops);
  }
  return r;
}

/// The sharded concurrent front-end: `num_shards` shards behind one
/// device, `client_threads` client threads each owning a disjoint set of
/// shards and issuing single-shard MultiPut batches (per-shard batched
/// placement is what carries the win on a single core; on multi-core
/// boxes shard parallelism stacks on top). The PUT figure is total
/// operations across all threads over the wall time.
struct ShardedOpsResult {
  double bootstrap_ms = 0;  // ShardedStore::Bootstrap, wall clock.
  double put_ops_s = 0;
  double get_ops_s = 0;
  double put_p50_us = 0;  // Per-op, from per-MultiPut latencies / batch.
  double put_p99_us = 0;
  double put_p999_us = 0;
  uint64_t background_retrains = 0;
};

/// True when the configuration oversubscribes the machine: more client
/// threads than cores means the "concurrent" sections timeslice one core
/// and their speedups measure the scheduler, not the store. Recorded in
/// the JSON so scripts/check.sh can skip the speedup gates instead of
/// failing on a figure that means nothing (S2).
bool Undersubscribed(size_t client_threads) {
  return client_threads > std::thread::hardware_concurrency();
}

ShardedOpsResult RunShardedBench(size_t num_shards, size_t client_threads,
                                 size_t pool_threads) {
  using Clock = std::chrono::steady_clock;
  const OpsParams p = MakeParams();
  // Same TOTAL geometry and workload as the single-store sections — the
  // device, keyspace and PUT stream are split across the shards, so the
  // comparison isolates the front-end (hash partitioning, per-shard
  // engines/locks/batches), not a bigger machine.
  core::ShardedStoreConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard.num_segments = p.segments / num_shards;
  cfg.shard.segment_bits = p.bits;
  cfg.shard.model = bench::DefaultModel(p.bits, 4);
  cfg.shard.model.pretrain_epochs = 2;
  cfg.shard.auto_retrain = true;
  cfg.shard.background_retrain = true;
  // The free floor is an absolute per-cluster count: scale the
  // single-store setting (8 of 256 segments) down to the shard's
  // capacity, or a quarter-size shard would spend its whole life under
  // the retrain trigger.
  cfg.shard.retrain.min_free_per_cluster = std::max<size_t>(
      1, 8 * cfg.shard.num_segments / p.segments);
  cfg.pool_threads = pool_threads;
  auto store_or = core::ShardedStore::Create(cfg);
  if (!store_or.ok()) std::abort();
  auto store = std::move(*store_or);

  workload::ProtoConfig pc;
  pc.dim = p.bits;
  pc.num_classes = 4;
  pc.samples = p.segments + 64;
  pc.seed = 7;
  auto ds = workload::MakeProtoDataset(pc);
  store->Seed(ds);
  ShardedOpsResult r;
  const auto boot0 = Clock::now();
  if (!store->Bootstrap().ok()) std::abort();
  r.bootstrap_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - boot0).count();

  // p.keys / num_shards keys per shard (the single-store keyspace split
  // over the partition), found by probing the hash.
  const uint64_t keys_per_shard = p.keys / num_shards;
  std::vector<std::vector<uint64_t>> shard_keys(num_shards);
  size_t filled = 0;
  for (uint64_t key = 0; filled < num_shards; ++key) {
    auto& keys = shard_keys[store->ShardOf(key)];
    if (keys.size() < keys_per_shard) {
      keys.push_back(key);
      if (keys.size() == keys_per_shard) ++filled;
    }
  }

  // Pre-build each shard's MultiPut batches outside the timed region.
  // MultiPut recycles each update's old address as its row lands, so a
  // batch of updates never needs more free segments than one Put.
  const uint64_t puts_per_shard = p.puts / num_shards;
  std::vector<std::vector<std::vector<std::pair<uint64_t, BitVector>>>>
      batches(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    for (uint64_t i = 0; i < puts_per_shard;) {
      std::vector<std::pair<uint64_t, BitVector>> kvs;
      for (size_t j = 0; j < p.batch && i < puts_per_shard; ++j, ++i) {
        kvs.emplace_back(shard_keys[s][i % keys_per_shard],
                         ds.items[i % ds.items.size()]);
      }
      batches[s].push_back(std::move(kvs));
    }
  }

  // Runs fn(s) for every shard, shard s on client thread s % threads,
  // and returns the seconds from the clients' release to the last
  // client's finish. The clients are started first and wait at a start
  // gate, so neither spawning nor joining them is timed: in a 400-PUT
  // smoke pass each client works for a few hundred microseconds, about
  // what spawning four threads takes.
  auto run_clients = [&](auto&& fn) {
    std::atomic<size_t> waiting{0};
    std::atomic<bool> go{false};
    std::vector<Clock::time_point> done(client_threads);
    std::vector<std::thread> clients;
    for (size_t t = 0; t < client_threads; ++t) {
      clients.emplace_back([&, t] {
        waiting.fetch_add(1, std::memory_order_relaxed);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (size_t s = t; s < num_shards; s += client_threads) fn(s);
        done[t] = Clock::now();
      });
    }
    while (waiting.load(std::memory_order_relaxed) < client_threads) {
      std::this_thread::yield();
    }
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& c : clients) c.join();
    return std::chrono::duration<double>(
               *std::max_element(done.begin(), done.end()) - t0)
        .count();
  };

  // Per-shard latency logs: each shard is driven by exactly one client
  // thread, so the per-shard vectors need no synchronization. A batch of
  // k puts contributes its per-op mean k times, so the merged
  // distribution weights every PUT equally.
  std::vector<std::vector<double>> op_us(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    op_us[s].reserve(puts_per_shard);
  }
  const double put_s = run_clients([&](size_t s) {
    for (const auto& kvs : batches[s]) {
      auto b0 = Clock::now();
      if (!store->MultiPut(kvs).ok()) std::abort();
      const double per_op =
          std::chrono::duration<double, std::micro>(Clock::now() - b0)
              .count() /
          kvs.size();
      op_us[s].insert(op_us[s].end(), kvs.size(), per_op);
    }
  });
  {
    std::vector<double> all;
    all.reserve(puts_per_shard * num_shards);
    for (auto& v : op_us) all.insert(all.end(), v.begin(), v.end());
    const bench::TailStats tail = bench::SummarizeLatencies(
        all, put_s, puts_per_shard * num_shards);
    r.put_ops_s = tail.ops_s;
    r.put_p50_us = tail.p50_us;
    r.put_p99_us = tail.p99_us;
    r.put_p999_us = tail.p999_us;
  }

  for (size_t s = 0; s < num_shards; ++s) {
    while (store->shard(s).engine().RetrainInFlight()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const uint64_t gets_per_shard = p.gets / num_shards;
  const double get_s = run_clients([&](size_t s) {
    for (uint64_t i = 0; i < gets_per_shard; ++i) {
      if (!store->Get(shard_keys[s][i % keys_per_shard]).ok()) std::abort();
    }
  });
  r.get_ops_s = gets_per_shard * num_shards / get_s;
  auto snap = store->TakeSnapshot();
  r.background_retrains = snap.engine.background_retrains;
  if (std::getenv("E2NVM_OPS_DEBUG") != nullptr) {
    std::fprintf(stderr,
                 "[sharded] placements=%llu retrains=%llu bg=%llu "
                 "fallback=%llu swap_repred=%llu rel_hits=%llu "
                 "releases=%llu predict_flops=%.3g train_flops=%.3g\n",
                 (unsigned long long)snap.engine.placements,
                 (unsigned long long)snap.engine.retrains,
                 (unsigned long long)snap.engine.background_retrains,
                 (unsigned long long)snap.engine.fallback_placements,
                 (unsigned long long)snap.engine.swap_repredictions,
                 (unsigned long long)snap.engine.release_cluster_hits,
                 (unsigned long long)snap.engine.releases,
                 snap.engine.predict_flops, snap.engine.train_flops);
  }
  return r;
}

// --- Bootstrap training -> BENCH_ops.json "train" -------------------
//
// E2Model::Train at perfbench's two set-up geometries: kv_ycsb_a's
// 1024-segment shard of 2048-bit values and kv_small's 512 x 512 bits,
// hidden 64, latent 10, k 8, one epoch plus one fine-tune round, serial
// kernels. A store's Bootstrap runs one such training per distinct
// shard image (DESIGN.md §10), so this is most of its set-up time. The
// smoke pass skips it (no gate reads it) and writes an empty array.

struct TrainGeometry {
  const char* name;
  size_t rows;
  size_t bits;
};

constexpr TrainGeometry kTrainGeometries[] = {{"1024x2048", 1024, 2048},
                                              {"512x512", 512, 512}};
constexpr int kTrainReps = 9;

/// Median wall-clock ms of kTrainReps fresh E2Model::Train runs on `g`.
double RunTrainBench(const TrainGeometry& g) {
  workload::ProtoConfig pc;
  pc.dim = g.bits;
  pc.num_classes = 8;
  pc.samples = g.rows;
  pc.seed = 7;
  const workload::BitDataset ds = workload::MakeProtoDataset(pc);
  ml::Matrix contents(g.rows, g.bits);
  for (size_t i = 0; i < g.rows; ++i) {
    ds.items[i].AppendFloatsTo(contents.Row(i));
  }
  core::E2ModelConfig mc = bench::DefaultModel(g.bits, 8);
  mc.pretrain_epochs = 1;
  std::vector<double> ms;
  for (int i = 0; i < kTrainReps; ++i) {
    core::E2Model model(mc);
    const auto t0 = std::chrono::steady_clock::now();
    if (!model.Train(contents).ok()) std::abort();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

void WriteOpsJson(const char* path, unsigned threads, size_t batch,
                  const OpsResult& serial, const OpsResult& background,
                  const OpsResult& incremental, const OpsResult& batched,
                  size_t shards, size_t client_threads,
                  const ShardedOpsResult& sharded,
                  const std::vector<double>& train_ms_p50) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  // Key order is fixed so diffs between runs stay line-stable.
  bench::JsonWriter jw(f);
  auto emit = [&](const char* name, const OpsResult& r) {
    jw.BeginObject(name);
    jw.Field("put_ops_per_s", r.put_ops_s, 1);
    jw.Field("get_ops_per_s", r.get_ops_s, 1);
    jw.Field("delete_ops_per_s", r.delete_ops_s, 1);
    jw.Field("put_p50_us", r.put_p50_us);
    jw.Field("put_p99_us", r.put_p99_us);
    jw.Field("put_p999_us", r.put_p999_us);
    jw.Field("put_max_us", r.put_max_us);
    jw.Field("put_max_us_steady", r.put_max_us_steady);
    jw.Field("get_p50_us", r.get_p50_us);
    jw.Field("get_p99_us", r.get_p99_us);
    jw.Field("get_p999_us", r.get_p999_us);
    jw.Field("alloc_per_put", r.alloc_per_put);
    jw.Field("alloc_per_put_steady", r.alloc_per_put_steady);
    jw.Field("warmup_allocs", r.warmup_allocs);
    jw.Field("retrain_allocs", r.retrain_allocs);
    jw.Field("adoption_allocs", r.adoption_allocs);
    jw.Field("refine_allocs", r.refine_allocs);
    jw.Field("sync_retrains", r.sync_retrains);
    jw.Field("adopted_shadows", r.adopted_shadows);
    jw.Field("background_retrains", r.background_retrains);
    jw.Field("refine_steps", r.refine_steps);
    jw.EndObject();
  };
  jw.Field("hardware_concurrency", std::thread::hardware_concurrency());
  jw.Field("simd_level", SimdLevelName(ActiveSimdLevel()));
  jw.Field("pool_threads", threads);
  jw.Field("batch_size", batch);
  emit("serial_sync_retrain", serial);
  // Background retraining; the key predates kernels running on their
  // caller, and check_bench.py reads it.
  emit("pooled_background_retrain", background);
  // Sync retraining + §16 incremental learning, under a drifting PUT
  // stream: the apples-to-apples counterpart of the serial section,
  // showing drift answered by sub-ms refinement steps instead of
  // tens-of-ms full rebuilds (put_max_us_steady is the headline).
  emit("incremental_put", incremental);
  // The batched section only measures the PUT stream: no keys for the
  // GET/DELETE/latency fields it never timed, instead of fake zeros a
  // reader could mistake for measurements.
  jw.BeginObject("batched_put");
  jw.Field("put_ops_per_s", batched.put_ops_s, 1);
  jw.Field("alloc_per_put", batched.alloc_per_put);
  jw.Field("sync_retrains", batched.sync_retrains);
  jw.Field("adopted_shadows", batched.adopted_shadows);
  jw.Field("background_retrains", batched.background_retrains);
  jw.EndObject();
  jw.BeginObject("sharded_put");
  jw.Field("shards", shards);
  jw.Field("client_threads", client_threads);
  jw.Field("batch_size", batch);
  jw.Field("put_ops_per_s", sharded.put_ops_s, 1);
  jw.Field("get_ops_per_s", sharded.get_ops_s, 1);
  jw.Field("put_p50_us", sharded.put_p50_us);
  jw.Field("put_p99_us", sharded.put_p99_us);
  jw.Field("put_p999_us", sharded.put_p999_us);
  jw.Field("background_retrains", sharded.background_retrains);
  jw.Field("undersubscribed", Undersubscribed(client_threads));
  jw.Field("speedup_vs_pooled_put",
           background.put_ops_s > 0
               ? sharded.put_ops_s / background.put_ops_s
               : 0.0);
  jw.EndObject();
  jw.BeginArray("train");
  for (size_t i = 0; i < train_ms_p50.size(); ++i) {
    const TrainGeometry& g = kTrainGeometries[i];
    jw.BeginObject();
    jw.Field("name", g.name);
    jw.Field("rows", g.rows);
    jw.Field("bits", g.bits);
    jw.Field("reps", kTrainReps);
    jw.Field("train_ms_p50", train_ms_p50[i]);
    jw.EndObject();
  }
  jw.EndArray();
  jw.Finish();
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

// --- Shard-scaling sweep -> BENCH_scaling.json ----------------------
//
// The multi-core scaling curve for the contention-free shard refactor
// (DESIGN.md §13): 1/2/4/8 shards, one client thread per shard, same
// total geometry/keyspace/PUT stream at every point, so the only thing
// that grows is the parallelism the front-end can actually extract.
// Every point records whether it oversubscribed the machine; on a 1-core
// box every multi-thread point is flagged and the speedup gate in
// scripts/check.sh skips them. Every point also records the background
// retrains it launched: a training timeslices against that point's
// PUTs, so a point that launched fewer than the 1-shard baseline reads
// its speedup against a slowed baseline. `bootstrap_ms` is the store's
// set-up training: the shards are seeded alike, so every point trains
// one model (DESIGN.md §10).

void RunScalingSweep(const char* path, size_t pool_threads) {
  constexpr size_t kShardCounts[] = {1, 2, 4, 8};
  std::vector<ShardedOpsResult> points;
  for (size_t shards : kShardCounts) {
    std::printf("  scaling: %zu shard(s) x %zu client(s)...\n", shards,
                shards);
    std::fflush(stdout);
    points.push_back(RunShardedBench(shards, /*client_threads=*/shards,
                                     pool_threads));
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  bench::JsonWriter jw(f);
  jw.Field("hardware_concurrency", std::thread::hardware_concurrency());
  jw.Field("simd_level", SimdLevelName(ActiveSimdLevel()));
  jw.Field("pool_threads", pool_threads);
  jw.BeginArray("points");
  const double base = points[0].put_ops_s;
  for (size_t i = 0; i < points.size(); ++i) {
    const size_t shards = kShardCounts[i];
    const ShardedOpsResult& r = points[i];
    jw.BeginObject();
    jw.Field("shards", shards);
    jw.Field("client_threads", shards);
    jw.Field("batch_size", MakeParams().batch);
    jw.Field("bootstrap_ms", r.bootstrap_ms);
    jw.Field("put_ops_per_s", r.put_ops_s, 1);
    jw.Field("get_ops_per_s", r.get_ops_s, 1);
    jw.Field("put_p50_us", r.put_p50_us);
    jw.Field("put_p99_us", r.put_p99_us);
    jw.Field("put_p999_us", r.put_p999_us);
    jw.Field("background_retrains", r.background_retrains);
    jw.Field("speedup_vs_1shard", base > 0 ? r.put_ops_s / base : 0.0);
    jw.Field("undersubscribed", Undersubscribed(shards));
    jw.EndObject();
  }
  jw.EndArray();
  jw.Finish();
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace e2nvm

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // E2NVM_OPS_SCALING_ONLY=1: skip the microbenchmarks and the
  // BENCH_ops sections and run just the shard-scaling sweep (the
  // scaling-smoke stage of scripts/check.sh).
  const char* so = std::getenv("E2NVM_OPS_SCALING_ONLY");
  const bool scaling_only = so != nullptr && so[0] != '\0' && so[0] != '0';
  if (!scaling_only) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  unsigned threads = std::max(4u, std::thread::hardware_concurrency());
  if (!scaling_only) {
    e2nvm::bench::PrintBanner(
        "BENCH_ops", "store ops/s: sync retrain vs background retrain "
                     "vs batched PUT (background retrain) vs sharded "
                     "concurrent PUT");
    auto serial = e2nvm::RunOpsBench(false);
    auto background = e2nvm::RunOpsBench(true);
    // Sync retraining + incremental learning under a drifting PUT stream
    // (§16).
    auto incremental = e2nvm::RunOpsBench(false, /*incremental=*/true);
    // Same configuration as the background section, so batched_put vs
    // pooled_background_retrain isolates what MultiPut itself buys.
    auto batched = e2nvm::RunBatchedBench(true);
    // 4 shards x 4 client threads over one shared device; vs the
    // background section this adds hash partitioning, per-shard locking
    // and per-shard batched placement.
    constexpr size_t kShards = 4;
    constexpr size_t kClients = 4;
    auto sharded = e2nvm::RunShardedBench(kShards, kClients, threads);
    std::vector<double> train;
    if (!e2nvm::SmokeMode()) {
      for (const auto& g : e2nvm::kTrainGeometries) {
        train.push_back(e2nvm::RunTrainBench(g));
      }
    }
    e2nvm::WriteOpsJson("BENCH_ops.json", threads,
                        e2nvm::MakeParams().batch, serial, background,
                        incremental, batched, kShards, kClients, sharded,
                        train);
  }
  e2nvm::bench::PrintBanner(
      "BENCH_scaling", "shard-scaling curve: 1/2/4/8 shards x matching "
                       "client threads over one shared device");
  e2nvm::RunScalingSweep("BENCH_scaling.json", threads);
  return 0;
}
