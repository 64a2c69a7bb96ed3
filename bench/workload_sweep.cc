// Workload scenario matrix (DESIGN.md §15) -> BENCH_workloads.json.
//
// One named scenario = one fresh ShardedStore + one YcsbGenerator, run
// for a fixed op budget. The matrix covers the axes the uniform
// micro_ops trajectory is blind to:
//
//  - skew:        workload A at zipfian theta 0.50 / 0.80 / 0.99;
//  - mixes:       the six YCSB core workloads A-F at theta 0.99
//                 (scans run as consecutive GETs — the sharded store
//                 hash-partitions keys and has no range scan);
//  - churn:       a quarter of operations turn the key population over
//                 (insert a fresh key / delete the oldest live key);
//  - drift:       the latent value-class prototypes are re-drawn twice
//                 mid-run, so the placement model goes stale and the
//                 efficiency trigger must fire a background retrain
//                 (drift_incremental runs the same stream with §16
//                 incremental learning on: inline replay-ring refinement
//                 steps absorb the drift and no full retrain fires);
//  - mixed width: values are truncated to widths drawn from
//                 {1/4, 1/2, 3/4, 1} of the segment, one scenario per
//                 padding strategy from §4.1 (learned runs in full mode
//                 only — it trains an LSTM);
//  - net:         one scenario drives workload A through the src/net
//                 front-end (pipelined, depth 16) instead of calling the
//                 store directly.
//
// Determinism contract: every scenario runs one client thread with
// serial ML kernels, and after every operation the driver waits for any
// in-flight background retrain and adopts it (drain-on-trigger), so the
// swap points — and therefore flips_per_bit, energy, retrain counts and
// the final key set — are functions of the seed alone. Only wall-clock
// figures (ops_per_s, latency percentiles) are measurements. Two
// scenarios with identical configs (zipf_0.99 and ycsb_a) are kept as a
// cross-run determinism anchor: check.sh asserts their flips_per_bit
// match bit-for-bit.
//
// Every scenario that runs with retraining on is run a second time on the
// same stream with retraining off; its flips_per_bit is reported as
// flips_per_bit_no_retrain, what the scenario's retrains and refine steps
// cost or saved (ungated). The net scenario runs with retraining off, so
// there the two fields are one measurement.
//
// Every scenario also runs on an oracle twin: one cluster (model.k 1),
// scan_width kWholeCluster and retraining off, so each PUT takes the free
// segment of its shard nearest the value in Hamming distance, a greedy
// per-PUT yardstick for the model's placement. Its flips_per_bit is
// reported as flips_per_bit_oracle (ungated). The net scenario's oracle
// twin runs the same stream directly on a store.
//
// The driver exits nonzero when any operation fails or the store's final
// key count disagrees with the generator's live set, so CI cannot
// greenlight a lossy run. E2NVM_WORKLOAD_SMOKE=1 shrinks the op budget.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/padding.h"
#include "core/sharded_store.h"
#include "ml/lstm.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/datasets.h"
#include "workload/ycsb.h"

namespace e2nvm {
namespace {

using Clock = std::chrono::steady_clock;
using workload::OpType;
using workload::YcsbWorkload;

bool SmokeMode() {
  const char* s = std::getenv("E2NVM_WORKLOAD_SMOKE");
  return s != nullptr && s[0] != '\0' && s[0] != '0';
}

[[noreturn]] void Die(const char* what, const Status& st) {
  std::fprintf(stderr, "workload_sweep: %s: %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

struct Params {
  size_t shards = 2;
  size_t segments_per_shard = 160;
  size_t bits = 256;
  size_t classes = 4;
  uint64_t records = 96;
  uint64_t ops = 3000;
  uint64_t seed = 11;
  size_t max_scan_len = 12;
  size_t net_workers = 2;
  size_t net_depth = 16;
};

Params MakeParams() {
  Params p;
  if (SmokeMode()) p.ops = 320;
  return p;
}

struct Scenario {
  std::string name;
  YcsbWorkload workload = YcsbWorkload::kA;
  double theta = 0.99;
  double churn = 0.0;
  bool drift = false;
  /// §16 incremental learning: replay-ring refinement steps answer the
  /// drift instead of full background retrains.
  bool incremental = false;
  bool mixed_width = false;
  core::PadType pad = core::PadType::kZero;
  bool net = false;
};

struct ScenarioResult {
  uint64_t reads = 0, updates = 0, inserts = 0, deletes = 0, rmws = 0;
  uint64_t scans = 0, scan_keys = 0, scan_misses = 0;
  uint64_t failed = 0;
  uint64_t live_keys = 0, store_keys = 0;
  double seconds = 0;
  bench::TailStats put, get;
  double flips_per_bit = 0, pj_per_write = 0, total_pj = 0;
  /// flips_per_bit of the same stream with retraining off, and on the
  /// oracle twin.
  double flips_per_bit_no_retrain = 0;
  double flips_per_bit_oracle = 0;
  uint64_t retrains = 0, background_retrains = 0, refine_steps = 0;
  uint64_t capacity_retrains = 0;
  size_t threads = 1;  // Client + server threads the scenario needs.
};

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

workload::YcsbGenerator::Config GenConfig(const Params& p,
                                          const Scenario& sc) {
  workload::YcsbGenerator::Config gc;
  gc.workload = sc.workload;
  gc.record_count = p.records;
  gc.value_bits = p.bits;
  gc.num_value_classes = p.classes;
  gc.value_noise = 0.05;
  gc.max_scan_len = p.max_scan_len;
  gc.seed = p.seed;
  gc.zipf_theta = sc.theta;
  gc.churn_fraction = sc.churn;
  gc.drift_period = sc.drift ? p.ops / 3 : 0;
  if (sc.mixed_width) {
    gc.width_mix = {p.bits / 4, p.bits / 2, 3 * p.bits / 4, p.bits};
  }
  return gc;
}

/// Seed contents drawn from the scenario's own phase-0 class prototypes
/// (full width, version 0), so the bootstrap model starts aligned with
/// the value stream the way a trained production store would.
workload::BitDataset MakeSeedDataset(const Params& p, const Scenario& sc) {
  workload::YcsbGenerator::Config gc = GenConfig(p, sc);
  gc.width_mix.clear();  // Seeds fill whole segments.
  workload::YcsbGenerator gen(gc);
  workload::BitDataset ds;
  ds.name = "ycsb-seed";
  ds.dim = p.bits;
  for (uint64_t k = 0; k < p.records; ++k) {
    ds.items.push_back(gen.MakeValue(k, 0));
    ds.labels.push_back(static_cast<int>(k % p.classes));
  }
  return ds;
}

/// The store a run places with: the scenario's own, retraining on
/// (drain-on-trigger keeps it deterministic); the no-retrain twin, also
/// the net scenario's store, whose worker threads would make swap points
/// scheduling-dependent; or the oracle twin.
enum class Placement { kRetrain, kNoRetrain, kOracle };

std::unique_ptr<core::ShardedStore> MakeStore(const Params& p,
                                              const Scenario& sc,
                                              Placement placement) {
  const bool retrain = placement == Placement::kRetrain;
  core::ShardedStoreConfig cfg;
  cfg.num_shards = p.shards;
  cfg.shard.num_segments = p.segments_per_shard;
  cfg.shard.segment_bits = p.bits;
  cfg.shard.model = bench::DefaultModel(p.bits, p.classes);
  cfg.shard.model.pretrain_epochs = 2;
  if (placement == Placement::kOracle) {
    cfg.shard.model.k = 1;
    cfg.shard.scan_width = core::kWholeCluster;
  }
  cfg.shard.auto_retrain = retrain;
  cfg.shard.background_retrain = retrain;
  cfg.shard.retrain.window = 40;
  cfg.shard.retrain.baseline_writes = 40;
  cfg.shard.retrain.degradation_factor = 1.4;
  if (sc.incremental) {
    // §16: the drift detector answers degradation with inline replay-
    // ring refinement steps; the escalation budget is generous so
    // efficiency degradation never escalates to a full retrain. The
    // longer full run still sees the odd capacity trigger, which always
    // escalates (refinement never rebuilds the DAP), so
    // scripts/check_bench.py's drift_incremental gate allows a full
    // pass exactly its capacity_retrains and a smoke pass none.
    cfg.shard.incremental_learning = true;
    cfg.shard.replay_ring_capacity = 128;
    cfg.shard.refine_batch = 8;
    cfg.shard.retrain.refine_interval = 20;
    cfg.shard.retrain.max_refine_rounds = 64;
  }
  cfg.pool_threads = 0;  // No lanes: shadows train on dedicated threads.
  auto store_or = core::ShardedStore::Create(cfg);
  if (!store_or.ok()) Die("create store", store_or.status());
  auto store = std::move(*store_or);
  store->Seed(MakeSeedDataset(p, sc));
  if (Status st = store->Bootstrap(); !st.ok()) Die("bootstrap", st);
  return store;
}

ScenarioResult RunStoreScenario(const Params& p, const Scenario& sc,
                                const ml::Lstm* lstm, Placement placement) {
  auto store = MakeStore(p, sc, placement);
  core::Padder padder(sc.pad, core::PadLocation::kEnd, p.bits);
  if (sc.mixed_width) {
    for (size_t s = 0; s < store->num_shards(); ++s) {
      store->shard(s).engine().SetPadder(&padder,
                                         const_cast<ml::Lstm*>(lstm));
    }
  }

  workload::YcsbGenerator gen(GenConfig(p, sc));
  std::unordered_map<uint64_t, uint32_t> versions;
  versions.reserve(p.records * 2);

  // Load phase: version-0 value for every record.
  for (uint64_t k = 0; k < p.records; ++k) {
    if (Status st = store->Put(k, gen.MakeValue(k, 0)); !st.ok()) {
      Die("load put", st);
    }
    versions[k] = 0;
  }
  store->PumpRetrains();

  const auto snap0 = store->TakeSnapshot();
  const auto meter0 = store->meter().Snapshot();

  ScenarioResult r;
  std::vector<double> put_us, get_us;
  put_us.reserve(p.ops);
  get_us.reserve(p.ops);
  BitVector scratch(p.bits);
  uint64_t puts = 0;

  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < p.ops; ++i) {
    const workload::YcsbOp op = gen.Next();
    switch (op.type) {
      case OpType::kRead: {
        const auto a = Clock::now();
        Status st = store->GetInto(op.key, &scratch);
        get_us.push_back(Micros(Clock::now() - a));
        ++r.reads;
        if (!st.ok()) ++r.failed;
        break;
      }
      case OpType::kUpdate: {
        const BitVector v = gen.MakeValue(op.key, ++versions[op.key]);
        const auto a = Clock::now();
        Status st = store->Put(op.key, v);
        put_us.push_back(Micros(Clock::now() - a));
        ++r.updates;
        ++puts;
        if (!st.ok()) ++r.failed;
        break;
      }
      case OpType::kInsert: {
        versions[op.key] = 0;
        const BitVector v = gen.MakeValue(op.key, 0);
        const auto a = Clock::now();
        Status st = store->Put(op.key, v);
        put_us.push_back(Micros(Clock::now() - a));
        ++r.inserts;
        ++puts;
        if (!st.ok()) ++r.failed;
        break;
      }
      case OpType::kDelete: {
        versions.erase(op.key);
        const auto a = Clock::now();
        Status st = store->Delete(op.key);
        put_us.push_back(Micros(Clock::now() - a));
        ++r.deletes;
        if (!st.ok()) ++r.failed;
        break;
      }
      case OpType::kScan: {
        ++r.scans;
        for (size_t j = 0; j < op.scan_len; ++j) {
          const uint64_t k = op.key + j;
          // Keys are dense in [oldest_live, current_records); anything
          // past the end (or churned out) is a miss, not a failure.
          if (k >= gen.current_records() || k < gen.oldest_live()) {
            ++r.scan_misses;
            continue;
          }
          const auto a = Clock::now();
          Status st = store->GetInto(k, &scratch);
          get_us.push_back(Micros(Clock::now() - a));
          ++r.scan_keys;
          if (!st.ok()) ++r.failed;
        }
        break;
      }
      case OpType::kReadModifyWrite: {
        const auto a = Clock::now();
        Status st = store->GetInto(op.key, &scratch);
        get_us.push_back(Micros(Clock::now() - a));
        if (!st.ok()) ++r.failed;
        const BitVector v = gen.MakeValue(op.key, ++versions[op.key]);
        const auto b = Clock::now();
        st = store->Put(op.key, v);
        put_us.push_back(Micros(Clock::now() - b));
        ++r.rmws;
        ++puts;
        if (!st.ok()) ++r.failed;
        break;
      }
    }
    store->PumpRetrains();
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  const auto snap1 = store->TakeSnapshot();
  const auto meter1 = store->meter().Snapshot();
  const uint64_t flips = snap1.device.total_bits_flipped() -
                         snap0.device.total_bits_flipped();
  const uint64_t bits = snap1.device.logical_bits_written -
                        snap0.device.logical_bits_written;
  r.flips_per_bit = bits > 0 ? static_cast<double>(flips) / bits : 0;
  const double write_pj =
      meter1.DomainPj(nvm::EnergyDomain::kPmemWrite) -
      meter0.DomainPj(nvm::EnergyDomain::kPmemWrite);
  r.pj_per_write = puts > 0 ? write_pj / puts : 0;
  r.total_pj = meter1.TotalPj() - meter0.TotalPj();
  r.retrains = snap1.engine.retrains - snap0.engine.retrains;
  r.background_retrains =
      snap1.engine.background_retrains - snap0.engine.background_retrains;
  r.refine_steps = snap1.engine.refine_steps - snap0.engine.refine_steps;
  r.capacity_retrains =
      snap1.engine.capacity_retrains - snap0.engine.capacity_retrains;
  r.put = bench::SummarizeLatencies(put_us, r.seconds, put_us.size());
  r.get = bench::SummarizeLatencies(get_us, r.seconds, get_us.size());
  r.live_keys = gen.live_records();
  r.store_keys = store->size();
  if (r.store_keys != r.live_keys) ++r.failed;
  // One client thread plus (transiently) one retrain thread per shard;
  // the drain policy keeps at most one retrain alive at a time.
  r.threads = 2;
  return r;
}

ScenarioResult RunNetScenario(const Params& p, const Scenario& sc) {
  auto store = MakeStore(p, sc, Placement::kNoRetrain);
  net::ServerConfig scfg;
  scfg.num_workers = p.net_workers;
  auto server_or = net::Server::Start(store.get(), scfg);
  if (!server_or.ok()) Die("start server", server_or.status());
  auto& server = *server_or;
  auto client_or = net::Client::Connect(server->port());
  if (!client_or.ok()) Die("connect", client_or.status());
  auto& client = *client_or;

  workload::YcsbGenerator gen(GenConfig(p, sc));
  std::unordered_map<uint64_t, uint32_t> versions;

  ScenarioResult r;
  // Preload every record through the wire (MULTI_PUT frames).
  {
    std::vector<std::pair<uint64_t, BitVector>> kvs;
    for (uint64_t k = 0; k < p.records; ++k) {
      kvs.emplace_back(k, gen.MakeValue(k, 0));
      versions[k] = 0;
      if (kvs.size() == 16 || k + 1 == p.records) {
        client->QueueMultiPut(kvs.data(), kvs.size());
        if (Status st = client->Flush(); !st.ok()) Die("flush", st);
        auto resp = client->ReadResponse();
        if (!resp.ok()) Die("read response", resp.status());
        if (resp->status != net::WireStatus::kOk) ++r.failed;
        kvs.clear();
      }
    }
  }

  const auto snap0 = store->TakeSnapshot();
  const auto meter0 = store->meter().Snapshot();

  // Closed loop at fixed pipeline depth: a burst of ops is queued and
  // flushed in one send; responses come back in order, so slot i of the
  // burst maps to latency sample i.
  std::vector<double> put_us, get_us;
  put_us.reserve(p.ops);
  get_us.reserve(p.ops);
  std::vector<Clock::time_point> sent(p.net_depth);
  std::vector<uint8_t> is_put(p.net_depth);
  uint64_t puts = 0;
  uint64_t done = 0;
  const auto t0 = Clock::now();
  while (done < p.ops) {
    const size_t burst = static_cast<size_t>(
        std::min<uint64_t>(p.net_depth, p.ops - done));
    for (size_t j = 0; j < burst; ++j) {
      const workload::YcsbOp op = gen.Next();
      sent[j] = Clock::now();
      if (op.type == OpType::kUpdate) {
        client->QueuePut(op.key,
                         gen.MakeValue(op.key, ++versions[op.key]));
        is_put[j] = 1;
        ++r.updates;
        ++puts;
      } else {
        client->QueueGet(op.key);
        is_put[j] = 0;
        ++r.reads;
      }
    }
    if (Status st = client->Flush(); !st.ok()) Die("flush", st);
    for (size_t j = 0; j < burst; ++j) {
      auto resp = client->ReadResponse();
      if (!resp.ok()) Die("read response", resp.status());
      if (resp->status != net::WireStatus::kOk) ++r.failed;
      (is_put[j] != 0 ? put_us : get_us)
          .push_back(Micros(Clock::now() - sent[j]));
    }
    done += burst;
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  auto stats_or = client->Stats();
  if (!stats_or.ok()) Die("stats", stats_or.status());
  r.failed += stats_or->frames_rejected;

  const auto snap1 = store->TakeSnapshot();
  const auto meter1 = store->meter().Snapshot();
  const uint64_t flips = snap1.device.total_bits_flipped() -
                         snap0.device.total_bits_flipped();
  const uint64_t bits = snap1.device.logical_bits_written -
                        snap0.device.logical_bits_written;
  r.flips_per_bit = bits > 0 ? static_cast<double>(flips) / bits : 0;
  const double write_pj =
      meter1.DomainPj(nvm::EnergyDomain::kPmemWrite) -
      meter0.DomainPj(nvm::EnergyDomain::kPmemWrite);
  r.pj_per_write = puts > 0 ? write_pj / puts : 0;
  r.total_pj = meter1.TotalPj() - meter0.TotalPj();
  r.put = bench::SummarizeLatencies(put_us, r.seconds, put_us.size());
  r.get = bench::SummarizeLatencies(get_us, r.seconds, get_us.size());
  r.live_keys = gen.live_records();
  r.store_keys = store->size();
  if (r.store_keys != r.live_keys) ++r.failed;
  r.threads = p.net_workers + 2;  // Workers + acceptor + the client.
  return r;
}

std::vector<Scenario> MakeMatrix(const Params& p) {
  std::vector<Scenario> m;
  for (double theta : {0.50, 0.80, 0.99}) {
    char name[32];
    std::snprintf(name, sizeof(name), "zipf_%.2f", theta);
    Scenario s;
    s.name = name;
    s.theta = theta;
    m.push_back(s);
  }
  for (auto w : {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC,
                 YcsbWorkload::kD, YcsbWorkload::kE, YcsbWorkload::kF}) {
    Scenario s;
    s.name = std::string("ycsb_") +
             static_cast<char>('a' + static_cast<int>(w));
    s.workload = w;
    m.push_back(s);
  }
  {
    Scenario s;
    s.name = "churn";
    s.churn = 0.25;
    m.push_back(s);
  }
  {
    Scenario s;
    s.name = "drift";
    s.drift = true;
    m.push_back(s);
  }
  {
    // The same drift stream served by §16 incremental learning: inline
    // refinement steps instead of full background retrains.
    Scenario s;
    s.name = "drift_incremental";
    s.drift = true;
    s.incremental = true;
    m.push_back(s);
  }
  struct PadCase {
    const char* name;
    core::PadType pad;
  };
  for (const PadCase& pc :
       {PadCase{"width_zero", core::PadType::kZero},
        PadCase{"width_one", core::PadType::kOne},
        PadCase{"width_random", core::PadType::kRandom},
        PadCase{"width_input", core::PadType::kInputBased},
        PadCase{"width_dataset", core::PadType::kDatasetBased},
        PadCase{"width_memory", core::PadType::kMemoryBased},
        PadCase{"width_learned", core::PadType::kLearned}}) {
    if (SmokeMode() && pc.pad == core::PadType::kLearned) continue;
    Scenario s;
    s.name = pc.name;
    s.mixed_width = true;
    s.pad = pc.pad;
    m.push_back(s);
  }
  {
    Scenario s;
    s.name = "net_ycsb_a";
    s.net = true;
    m.push_back(s);
  }
  (void)p;
  return m;
}

}  // namespace
}  // namespace e2nvm

int main() {
  using namespace e2nvm;
  const Params p = MakeParams();
  bench::PrintBanner("BENCH_workloads",
                     "scenario matrix: skew / mixes / churn / drift / "
                     "mixed-width / net");

  const std::vector<Scenario> matrix = MakeMatrix(p);

  // Learned-padding generator (full mode only), trained once on the
  // width-scenario seed distribution.
  std::unique_ptr<ml::Lstm> lstm;
  if (!SmokeMode()) {
    Scenario width;
    width.mixed_width = true;
    ml::LstmConfig lc;
    lc.input_size = 8;
    lc.timesteps = 8;
    lc.hidden_size = 10;
    lc.output_size = 8;
    auto lstm_or = core::TrainPaddingLstm(MakeSeedDataset(p, width), lc,
                                          /*epochs=*/2, 2000);
    if (!lstm_or.ok()) Die("lstm train", lstm_or.status());
    lstm = std::move(*lstm_or);
  }

  std::vector<ScenarioResult> results;
  uint64_t total_failed = 0;
  for (const Scenario& sc : matrix) {
    std::printf("  %-14s ...", sc.name.c_str());
    std::fflush(stdout);
    ScenarioResult r =
        sc.net ? RunNetScenario(p, sc)
               : RunStoreScenario(p, sc, lstm.get(), Placement::kRetrain);
    r.flips_per_bit_no_retrain = r.flips_per_bit;
    if (!sc.net) {
      const ScenarioResult twin =
          RunStoreScenario(p, sc, lstm.get(), Placement::kNoRetrain);
      r.flips_per_bit_no_retrain = twin.flips_per_bit;
      total_failed += twin.failed;
    }
    const ScenarioResult oracle =
        RunStoreScenario(p, sc, lstm.get(), Placement::kOracle);
    r.flips_per_bit_oracle = oracle.flips_per_bit;
    total_failed += oracle.failed;
    std::printf(" %8.0f ops/s  flips/bit %.4f (%.4f without retraining,"
                " oracle %.4f)  retrains %llu+%llubg  refines %llu"
                "  failed %llu\n",
                static_cast<double>(p.ops) / r.seconds, r.flips_per_bit,
                r.flips_per_bit_no_retrain, r.flips_per_bit_oracle,
                static_cast<unsigned long long>(r.retrains),
                static_cast<unsigned long long>(r.background_retrains),
                static_cast<unsigned long long>(r.refine_steps),
                static_cast<unsigned long long>(r.failed));
    total_failed += r.failed;
    results.push_back(std::move(r));
  }

  std::FILE* f = std::fopen("BENCH_workloads.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_workloads.json\n");
    return 1;
  }
  {
    bench::JsonWriter jw(f);
    jw.Field("hardware_concurrency", std::thread::hardware_concurrency());
    jw.Field("smoke", SmokeMode());
    jw.Field("seed", p.seed);
    jw.Field("shards", p.shards);
    jw.Field("segments_per_shard", p.segments_per_shard);
    jw.Field("value_bits", p.bits);
    jw.Field("records", p.records);
    jw.Field("ops_per_scenario", p.ops);
    jw.BeginArray("scenarios");
    for (size_t i = 0; i < matrix.size(); ++i) {
      const Scenario& sc = matrix[i];
      const ScenarioResult& r = results[i];
      jw.BeginObject();
      jw.Field("name", sc.name.c_str());
      jw.Field("workload", workload::YcsbWorkloadName(sc.workload));
      jw.Field("zipf_theta", sc.theta);
      jw.Field("churn_fraction", sc.churn);
      jw.Field("drift_period",
               static_cast<uint64_t>(sc.drift ? p.ops / 3 : 0));
      jw.Field("incremental", sc.incremental);
      jw.Field("pad", sc.mixed_width
                          ? std::string(core::PadTypeName(sc.pad)).c_str()
                          : "none");
      jw.Field("net", sc.net);
      jw.Field("ops", p.ops);
      jw.Field("reads", r.reads);
      jw.Field("updates", r.updates);
      jw.Field("inserts", r.inserts);
      jw.Field("deletes", r.deletes);
      jw.Field("rmws", r.rmws);
      jw.Field("scans", r.scans);
      jw.Field("scan_keys", r.scan_keys);
      jw.Field("scan_misses", r.scan_misses);
      jw.Field("failed_ops", r.failed);
      jw.Field("live_keys", r.live_keys);
      jw.Field("store_keys", r.store_keys);
      jw.Field("ops_per_s", static_cast<double>(p.ops) / r.seconds, 1);
      jw.TailSection("put", r.put);
      jw.TailSection("get", r.get);
      jw.Field("flips_per_bit", r.flips_per_bit, 4);
      jw.Field("flips_per_bit_no_retrain", r.flips_per_bit_no_retrain, 4);
      jw.Field("flips_per_bit_oracle", r.flips_per_bit_oracle, 4);
      jw.Field("pj_per_write", r.pj_per_write, 1);
      jw.Field("total_pj", r.total_pj, 1);
      jw.Field("retrains", r.retrains);
      jw.Field("background_retrains", r.background_retrains);
      jw.Field("refine_steps", r.refine_steps);
      jw.Field("capacity_retrains", r.capacity_retrains);
      jw.Field("undersubscribed",
               r.threads > std::thread::hardware_concurrency());
      jw.EndObject();
    }
    jw.EndArray();
    jw.Field("failed_ops_total", total_failed);
    jw.Finish();
  }
  std::fclose(f);
  std::printf("wrote BENCH_workloads.json (%zu scenarios)\n",
              matrix.size());
  if (total_failed > 0) {
    std::fprintf(stderr, "workload_sweep: %llu failed operations\n",
                 static_cast<unsigned long long>(total_failed));
    return 1;
  }
  return 0;
}
