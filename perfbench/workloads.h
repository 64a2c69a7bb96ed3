#ifndef E2NVM_PERFBENCH_WORKLOADS_H_
#define E2NVM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "common/bitvec.h"
#include "host_speed.h"

namespace e2bench {

/// Span names (indices into SpanNames()).
enum SpanName : uint16_t {
  kSpanOp,           // One operation, from send to completion.
  kSpanGen,          // Generating one chunk of inputs (untimed).
  kSpanStorePut,     // ShardedStore::Put.
  kSpanStoreGet,     // ShardedStore::GetInto.
  kSpanDrain,        // Waiting on and adopting background training.
  kSpanClientQueue,  // net::Client::QueuePut / QueueGet.
  kSpanClientFlush,  // net::Client::Flush.
  kSpanClientRead,   // net::Client::ReadResponse.
  kNumSpanNames,
};
const std::vector<std::string>& SpanNames();

/// One benchmark workload: store geometry, model, maintenance and traffic.
struct WorkloadSpec {
  std::string name;
  size_t shards = 1;
  size_t segments_per_shard = 0;
  size_t value_bits = 0;
  uint64_t records = 0;  // Live keys, loaded before the timed phase.
  int pretrain_epochs = 1;
  bool journal = false;
  bool retrain = false;      // Background retraining, drained per PUT.
  bool incremental = false;  // Replay-ring refinement (DESIGN.md §16).
  uint64_t drift_period = 0;
  bool net = false;  // PUTs through net::Client; otherwise GET/PUT 50/50.
  size_t net_connections = 2;
  size_t net_depth = 32;  // Outstanding PUTs per connection.
  size_t net_workers = 2;
  /// Fresh stores an untraced run sets up, each on its own seed derived
  /// from --seed; the run reports medians over them. Model maintenance
  /// reacts chaotically to the exact op stream (one seed's drift retrains
  /// in bursts, the next's do not), and the host disturbs single
  /// episodes, so a run samples several short streams, not one long one.
  size_t episodes = 3;
  /// Ops per second the op budget is sized by: an episode runs
  /// nominal_ops_per_s * seconds / episodes operations, so the op stream
  /// is a function of the arguments alone and the counters repeat exactly.
  double nominal_ops_per_s = 0;
  /// Threads the workload runs: the client plus background threads.
  size_t threads = 1;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Counter readings of every layer at one instant; Diff gives the change
/// across the timed phase.
struct Counters {
  // core::EngineStats, summed over shards.
  uint64_t placements = 0, releases = 0, retrains = 0, refine_steps = 0;
  uint64_t fallback_placements = 0, swap_repredictions = 0;
  uint64_t release_cluster_hits = 0;
  double predict_flops = 0, train_flops = 0;
  // nvm::DeviceStats.
  uint64_t writes = 0, flips = 0, set_transitions = 0, reset_transitions = 0;
  uint64_t dirty_lines = 0, logical_bits = 0;
  // nvm::EnergyMeter::Snapshot, per domain, and the simulated clock.
  double pmem_write_pj = 0, pmem_read_pj = 0, dram_pj = 0, cpu_model_pj = 0;
  double sim_ns = 0;
  // ShardedStore::Snapshot.
  uint64_t journal_checkpoints = 0;
  // net::WireStats.
  uint64_t batched_puts = 0, batches = 0, frames_rejected = 0;

  double TotalPj() const {
    return pmem_write_pj + pmem_read_pj + dram_pj + cpu_model_pj;
  }
};
Counters Diff(const Counters& after, const Counters& before);

/// Probe timings (µs unless noted), taken after the timed phase on inputs
/// captured from it.
struct ProbeResults {
  double assign_us_b1 = 0;
  double assign_us_per_row_b8 = 0;
  double train_ms = 0;
  double partial_fit_us = 0;
  double peek_us = 0;
  double journal_append_us = 0;
  double journal_checkpoint_us = 0;
  double nvm_write_us = 0;
  double index_get_us = 0;
  double codec_us = 0;
};

struct PassOptions {
  uint64_t seed = 1;
  uint64_t ops = 0;
  bool probes = false;
};

/// Outcome of one pass: set up a fresh store, run the op budget, check
/// every output.
struct PassResult {
  double setup_s = 0;
  double timed_s = 0;  // The timed phase, generation excluded.
  double gen_s = 0;    // Input generation, outside the timed phase.
  double drain_s = 0;  // Waiting on background training (in timed_s).
  double calib_s = 0;  // Calibration rounds, one after each chunk.
  uint64_t calib_rounds = 0;
  uint64_t ops = 0, puts = 0;
  uint64_t attempted = 0;  // Timed ops plus read-back checks.
  uint64_t failed = 0;     // Failed status, mismatch or no response.
  WindowedLatency put, get;  // Windows are whole generation chunks.
  Counters delta;
  size_t min_cluster_free = 0;       // Smallest DAP cluster at the end.
  double ratio_over_baseline = 0;    // Mean over shards, at the end.
  ProbeResults probes;

  double OpsPerS() const { return Ratio(static_cast<double>(ops), timed_s); }
  /// The host's slowness while this pass ran (HostSlowness).
  double Slowness() const {
    return HostSlowness(calib_s, calib_rounds,
                        HostCalibration::kReferenceRoundUs);
  }
  double FlipsPerBit() const {
    return Ratio(static_cast<double>(delta.flips),
                 static_cast<double>(delta.logical_bits));
  }
  double PjPerWrite() const {
    return Ratio(delta.pmem_write_pj, static_cast<double>(puts));
  }
  double TotalPjPerOp() const {
    return Ratio(delta.TotalPj(), static_cast<double>(ops));
  }
};

/// Seed of episode `i` of a run on `seed`: `seed` itself for episode 0
/// (the traced run replays it), a SplitMix64 mix for the others.
uint64_t EpisodeSeed(uint64_t seed, size_t i);

/// Runs one pass of `spec`. Set-up failures end the process; operation
/// failures are counted in the result. Spans go to `tracer`; a round of
/// `calibration` runs after every chunk, outside the timed phase.
PassResult RunPass(const WorkloadSpec& spec, const PassOptions& options,
                   HostCalibration& calibration, Tracer* tracer);

}  // namespace e2bench

#endif  // E2NVM_PERFBENCH_WORKLOADS_H_
