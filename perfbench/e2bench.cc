// The repo benchmark's entry point: runs one workload (or all of them),
// checks every output, and prints the result line. See README.md in this
// directory for the workloads, the metrics and how to run it.
//
//   e2bench --workload kv_ycsb_a|kv_small|kv_drift|net_ingest|all
//           --seed N --seconds S --trace 0|1 [--spans FILE]
//   e2bench --list-metrics
//
// --trace 0 runs the workload's episodes untraced, each a fresh store on
// a seed derived from --seed, and reports each end-to-end metric as the
// median over the episodes, every timing at the reference host speed
// (host_speed.h). --trace 1 runs episode 0 twice, untraced and
// then traced, probes the layers, and reports the per-layer metrics; on
// the kv workloads the two runs of one seed must reproduce the same
// flips, energy and retrain counts exactly.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "common/kernels.h"
#include "workloads.h"

namespace e2bench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric the benchmark prints; BENCHMARK.json lists the same names.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "ops/s"},  {"put_p50_us", "us"},
    {"get_p50_us", "us"},    {"flips_per_bit", "flips/bit"},
    {"pj_per_write", "pJ"},  {"total_pj_per_op", "pJ"},
    {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.gen_us_per_op", "us"},
    {"net.batch_fill", "puts/batch"},
    {"net.codec_us", "us"},
    {"net.frames_rejected", "count"},
    {"store.put_us_p50", "us"},
    {"store.put_us_p99", "us"},
    {"store.put_us_p999", "us"},
    {"store.put_us_max", "us"},
    {"store.get_us_p50", "us"},
    {"store.peek_us", "us"},
    {"journal.checkpoints", "count"},
    {"journal.append_us", "us"},
    {"journal.checkpoint_us", "us"},
    {"engine.memo_hit_frac", "frac"},
    {"engine.fallback_frac", "frac"},
    {"engine.swap_repredictions", "count"},
    {"dap.min_cluster_free", "count"},
    {"retrain.full", "count"},
    {"retrain.refine_steps", "count"},
    {"retrain.ratio_over_baseline", "ratio"},
    {"ml.assign_us_b1", "us"},
    {"ml.assign_us_per_row_b8", "us"},
    {"ml.train_ms", "ms"},
    {"ml.partial_fit_us", "us"},
    {"ml.predict_flops_per_put", "flop"},
    {"ml.train_flops_per_op", "flop"},
    {"nvm.flips_per_write", "flips"},
    {"nvm.dirty_lines_per_write", "lines"},
    {"nvm.set_frac", "frac"},
    {"nvm.writes_per_put", "writes"},
    {"nvm.sim_ns_per_op", "ns"},
    {"nvm.write_us", "us"},
    {"energy.pmem_write_pj_per_op", "pJ"},
    {"energy.pmem_read_pj_per_op", "pJ"},
    {"energy.dram_pj_per_op", "pJ"},
    {"energy.cpu_model_pj_per_op", "pJ"},
    {"index.get_us", "us"},
    {"host.calib_round_us", "us"},
    {"trace.overhead_frac", "frac"},
};

/// Values by name; Collect orders them by a definition table and fails
/// loudly on a name the table does not have or a table entry left unset.
class MetricValues {
 public:
  void Set(const char* name, double value, uint64_t samples = 0) {
    values_[name] = {value, samples};
  }

  template <size_t N>
  std::vector<Metric> Collect(const MetricDef (&defs)[N]) const {
    std::vector<Metric> out;
    for (const MetricDef& d : defs) {
      auto it = values_.find(d.name);
      if (it == values_.end()) {
        std::fprintf(stderr, "e2bench: metric %s was not measured\n", d.name);
        std::exit(1);
      }
      out.push_back({d.name, it->second.first, d.unit, it->second.second});
    }
    if (out.size() != values_.size()) {
      std::fprintf(stderr, "e2bench: a measured metric has no definition\n");
      std::exit(1);
    }
    return out;
  }

 private:
  std::map<std::string, std::pair<double, uint64_t>> values_;
};

struct Environment {
  size_t nproc = 0;
  unsigned hardware_concurrency = 0;
  const char* simd = "";
  const char* build_type = E2BENCH_BUILD_TYPE;
  bool sanitized = false;
  bool asserts = false;
};

Environment ProbeEnvironment() {
  Environment env;
  cpu_set_t set;
  CPU_ZERO(&set);
  env.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                  ? static_cast<size_t>(CPU_COUNT(&set))
                  : 1;
  env.hardware_concurrency = std::thread::hardware_concurrency();
  env.simd = e2nvm::SimdLevelName(e2nvm::ActiveSimdLevel());
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  env.sanitized = true;
#endif
#ifndef NDEBUG
  env.asserts = true;
#endif
  return env;
}

std::string EnvJson(const Environment& env, const WorkloadSpec& spec,
                    uint64_t seed, int seconds, int trace) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
                "\"trace\": %d, \"threads\": %zu, \"nproc\": %zu, "
                "\"hardware_concurrency\": %u, \"simd\": \"%s\", "
                "\"build_type\": \"%s\"}",
                spec.name.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace, spec.threads, env.nproc,
                env.hardware_concurrency, env.simd, env.build_type);
  return buf;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Counters that must repeat exactly across passes of one seed.
struct Fingerprint {
  double flips_per_bit, pj_per_write, total_pj_per_op;
  uint64_t retrains, refine_steps;

  explicit Fingerprint(const PassResult& r)
      : flips_per_bit(r.FlipsPerBit()),
        pj_per_write(r.PjPerWrite()),
        total_pj_per_op(r.TotalPjPerOp()),
        retrains(r.delta.retrains),
        refine_steps(r.delta.refine_steps) {}

  bool operator==(const Fingerprint&) const = default;
};

/// On the kv workloads (one client, drained retraining, serial kernels)
/// every pass of a seed must match the first exactly.
bool Deterministic(const WorkloadSpec& spec,
                   const std::vector<PassResult>& passes) {
  if (spec.net) return true;
  const Fingerprint first(passes.front());
  for (const PassResult& r : passes) {
    if (Fingerprint(r) == first) continue;
    const Fingerprint f(r);
    std::fprintf(stderr,
                 "e2bench: %s is not deterministic: flips_per_bit %.17g vs "
                 "%.17g, pj_per_write %.17g vs %.17g, total_pj_per_op %.17g "
                 "vs %.17g, retrains %llu vs %llu, refine_steps %llu vs "
                 "%llu\n",
                 spec.name.c_str(), f.flips_per_bit, first.flips_per_bit,
                 f.pj_per_write, first.pj_per_write, f.total_pj_per_op,
                 first.total_pj_per_op,
                 static_cast<unsigned long long>(f.retrains),
                 static_cast<unsigned long long>(first.retrains),
                 static_cast<unsigned long long>(f.refine_steps),
                 static_cast<unsigned long long>(first.refine_steps));
    return false;
  }
  return true;
}

void PrintPass(const WorkloadSpec& spec, size_t i, const char* kind,
               const PassResult& r) {
  std::printf(
      "%s pass %zu (%s): setup %.3f s, %llu ops in %.3f s = %.0f ops/s, "
      "put p50 %.2f p99 %.2f us, get p50 %.3f p99 %.3f us (as measured; "
      "host slowness %.3f), flips/bit %.6f, retrains %llu, refines %llu, "
      "checkpoints %llu, failed %llu/%llu\n",
      spec.name.c_str(), i, kind, r.setup_s,
      static_cast<unsigned long long>(r.ops), r.timed_s, r.OpsPerS(),
      Median(r.put.p50), Median(r.put.p99), Median(r.get.p50),
      Median(r.get.p99), r.Slowness(), r.FlipsPerBit(),
      static_cast<unsigned long long>(r.delta.retrains),
      static_cast<unsigned long long>(r.delta.refine_steps),
      static_cast<unsigned long long>(r.delta.journal_checkpoints),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.attempted));
}

/// A latency percentile as the median over every window of every
/// episode, each at reference speed.
double WindowedMedian(const std::vector<PassResult>& passes,
                      WindowedLatency PassResult::*lat,
                      std::vector<double> WindowedLatency::*pct) {
  std::vector<double> windows;
  for (const PassResult& r : passes) {
    for (double us : (r.*lat).*pct) windows.push_back(us / r.Slowness());
  }
  return Median(windows);
}

uint64_t Samples(const std::vector<PassResult>& passes,
                 WindowedLatency PassResult::*lat) {
  uint64_t n = 0;
  for (const PassResult& r : passes) n += (r.*lat).samples;
  return n;
}

/// End-to-end metrics: latency percentiles are the median window (see
/// WindowedLatency), the rest the median over episodes, so a disturbance
/// that slows part of a run does not move the result, and every timing is
/// divided by its episode's host slowness, so a drift in the host's speed
/// does not either.
std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes,
                             const HostCalibration& calibration) {
  MetricValues mv;
  std::vector<double> rate, fpb, pjw, pjo, setup;
  uint64_t ops = 0;
  for (const PassResult& r : passes) {
    rate.push_back(r.OpsPerS() * r.Slowness());
    fpb.push_back(r.FlipsPerBit());
    pjw.push_back(r.PjPerWrite());
    pjo.push_back(r.TotalPjPerOp());
    setup.push_back(r.setup_s / r.Slowness());
    ops += r.ops;
  }
  mv.Set("ops_per_s", Median(rate), ops);
  mv.Set("put_p50_us",
         WindowedMedian(passes, &PassResult::put, &WindowedLatency::p50),
         Samples(passes, &PassResult::put));
  mv.Set("get_p50_us",
         WindowedMedian(passes, &PassResult::get, &WindowedLatency::p50),
         Samples(passes, &PassResult::get));
  mv.Set("flips_per_bit", Median(fpb));
  mv.Set("pj_per_write", Median(pjw));
  mv.Set("total_pj_per_op", Median(pjo));
  mv.Set("setup_s", Median(setup), setup.size());
  // The calibration buffers are resident all run; the rest is the store's.
  mv.Set("peak_rss_mb",
         PeakRssMiB() -
             static_cast<double>(calibration.resident_bytes()) / (1 << 20));
  return mv.Collect(kEndToEnd);
}

std::vector<Metric> PerLayer(const PassResult& untraced, const PassResult& t,
                             const Tracer& tracer) {
  MetricValues mv;
  const Counters& d = t.delta;
  const double ops = static_cast<double>(t.ops);
  const double puts = static_cast<double>(t.puts);
  const auto span_pct = [&](SpanName name, double q) {
    return Percentile(Sorted(SpanMicros(tracer.spans(), name)), q);
  };
  const size_t put_spans = SpanMicros(tracer.spans(), kSpanStorePut).size();

  mv.Set("workload.gen_us_per_op", Ratio(t.gen_s * 1e6, ops), t.ops);
  mv.Set("net.batch_fill", Ratio(d.batched_puts, d.batches));
  mv.Set("net.codec_us", t.probes.codec_us);
  mv.Set("net.frames_rejected", d.frames_rejected);
  mv.Set("store.put_us_p50", span_pct(kSpanStorePut, 0.5), put_spans);
  mv.Set("store.put_us_p99", span_pct(kSpanStorePut, 0.99), put_spans);
  mv.Set("store.put_us_p999", span_pct(kSpanStorePut, 0.999), put_spans);
  mv.Set("store.put_us_max", span_pct(kSpanStorePut, 1.0), put_spans);
  mv.Set("store.get_us_p50", span_pct(kSpanStoreGet, 0.5));
  mv.Set("store.peek_us", t.probes.peek_us);
  mv.Set("journal.checkpoints", d.journal_checkpoints);
  mv.Set("journal.append_us", t.probes.journal_append_us);
  mv.Set("journal.checkpoint_us", t.probes.journal_checkpoint_us);
  mv.Set("engine.memo_hit_frac", Ratio(d.release_cluster_hits, d.releases));
  mv.Set("engine.fallback_frac", Ratio(d.fallback_placements, d.placements));
  mv.Set("engine.swap_repredictions", d.swap_repredictions);
  mv.Set("dap.min_cluster_free", t.min_cluster_free);
  mv.Set("retrain.full", d.retrains);
  mv.Set("retrain.refine_steps", d.refine_steps);
  mv.Set("retrain.ratio_over_baseline", t.ratio_over_baseline);
  mv.Set("ml.assign_us_b1", t.probes.assign_us_b1);
  mv.Set("ml.assign_us_per_row_b8", t.probes.assign_us_per_row_b8);
  mv.Set("ml.train_ms", t.probes.train_ms);
  mv.Set("ml.partial_fit_us", t.probes.partial_fit_us);
  mv.Set("ml.predict_flops_per_put", Ratio(d.predict_flops, puts));
  mv.Set("ml.train_flops_per_op", Ratio(d.train_flops, ops));
  mv.Set("nvm.flips_per_write", Ratio(d.flips, d.writes));
  mv.Set("nvm.dirty_lines_per_write", Ratio(d.dirty_lines, d.writes));
  mv.Set("nvm.set_frac",
         Ratio(d.set_transitions, d.set_transitions + d.reset_transitions));
  mv.Set("nvm.writes_per_put", Ratio(d.writes, puts));
  mv.Set("nvm.sim_ns_per_op", Ratio(d.sim_ns, ops));
  mv.Set("nvm.write_us", t.probes.nvm_write_us);
  mv.Set("energy.pmem_write_pj_per_op", Ratio(d.pmem_write_pj, ops));
  mv.Set("energy.pmem_read_pj_per_op", Ratio(d.pmem_read_pj, ops));
  mv.Set("energy.dram_pj_per_op", Ratio(d.dram_pj, ops));
  mv.Set("energy.cpu_model_pj_per_op", Ratio(d.cpu_model_pj, ops));
  mv.Set("index.get_us", t.probes.index_get_us);
  mv.Set("host.calib_round_us", Ratio(t.calib_s * 1e6,
                                      static_cast<double>(t.calib_rounds)),
         t.calib_rounds);
  // At reference speed, so the host's drift between the two passes does
  // not read as tracing cost.
  const double plain = untraced.OpsPerS() * untraced.Slowness();
  mv.Set("trace.overhead_frac",
         Ratio(plain - t.OpsPerS() * t.Slowness(), plain));
  return mv.Collect(kPerLayer);
}

/// Count, total time, self time and median duration per span name. The
/// client.read and retrain.drain rows carry the wait on the server and
/// on background training where a workload has them.
void PrintSelfTimes(const Tracer& tracer) {
  const std::vector<int64_t> self = SelfTimes(tracer.spans());
  std::vector<double> total_ms(kNumSpanNames, 0), self_ms(kNumSpanNames, 0);
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    total_ms[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    self_ms[s.name] += static_cast<double>(self[i]) / 1e6;
  }
  std::printf("spans: %-14s %10s %12s %12s %10s\n", "name", "count",
              "total_ms", "self_ms", "p50_us");
  for (uint16_t n = 0; n < kNumSpanNames; ++n) {
    const std::vector<double> us = SpanMicros(tracer.spans(), n);
    if (us.empty()) continue;
    std::printf("spans: %-14s %10zu %12.3f %12.3f %10.3f\n",
                SpanNames()[n].c_str(), us.size(), total_ms[n], self_ms[n],
                Median(us));
  }
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-30s %16.6g %-10s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

struct RunOutcome {
  bool correct = false;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

RunOutcome RunWorkload(const WorkloadSpec& spec, const Environment& env,
                       HostCalibration& calibration, uint64_t seed,
                       int seconds, int trace, const std::string& spans_path) {
  std::printf("env %s\n", EnvJson(env, spec, seed, seconds, trace).c_str());
  RunOutcome out;
  if (spec.threads > env.nproc) {
    std::fprintf(stderr, "e2bench: %s runs %zu threads but nproc is %zu\n",
                 spec.name.c_str(), spec.threads, env.nproc);
    return out;
  }
  PassOptions opt;
  opt.seed = seed;
  opt.ops = static_cast<uint64_t>(
      std::llround(spec.nominal_ops_per_s * seconds /
                   static_cast<double>(spec.episodes)));
  std::vector<PassResult> passes;
  Tracer tracer(trace != 0);
  if (trace == 0) {
    for (size_t i = 0; i < spec.episodes; ++i) {
      Tracer off(false);
      opt.seed = EpisodeSeed(seed, i);
      passes.push_back(RunPass(spec, opt, calibration, &off));
      PrintPass(spec, i, "untraced", passes.back());
    }
    out.metrics = EndToEnd(passes, calibration);
  } else {
    Tracer off(false);
    passes.push_back(RunPass(spec, opt, calibration, &off));
    PrintPass(spec, 0, "untraced", passes.back());
    opt.probes = true;
    passes.push_back(RunPass(spec, opt, calibration, &tracer));
    PrintPass(spec, 1, "traced", passes.back());
    out.metrics = PerLayer(passes[0], passes[1], tracer);
    PrintSelfTimes(tracer);
    if (!spans_path.empty() && !tracer.WriteCsv(spans_path, SpanNames())) {
      std::fprintf(stderr, "e2bench: cannot write %s\n", spans_path.c_str());
    }
  }
  for (const PassResult& r : passes) {
    out.attempted += r.attempted;
    out.failed += r.failed;
  }
  out.correct = out.failed == 0 && (trace == 0 || Deterministic(spec, passes));
  std::printf("%s %s metrics (failed_frac %.6g = %llu/%llu):\n",
              spec.name.c_str(), trace ? "per-layer" : "end-to-end",
              Ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  PrintMetrics(out.metrics);
  if (trace == 0) {
    // Printed but not in the result line: the p99s follow the host's
    // contention more steeply than the calibration kernel does, and their
    // spread across host regimes exceeds any bound the gate allows.
    std::printf(
        "  put_p99_us %.6g us (n=%llu), get_p99_us %.6g us (n=%llu); not "
        "gated\n",
        WindowedMedian(passes, &PassResult::put, &WindowedLatency::p99),
        static_cast<unsigned long long>(Samples(passes, &PassResult::put)),
        WindowedMedian(passes, &PassResult::get, &WindowedLatency::p99),
        static_cast<unsigned long long>(Samples(passes, &PassResult::get)));
  }
  return out;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: e2bench --workload NAME|all --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n       e2bench --list-metrics\n");
  std::exit(2);
}

}  // namespace
}  // namespace e2bench

int main(int argc, char** argv) {
  using namespace e2bench;
  std::string workload_name, spans_path;
  uint64_t seed = 1;
  int seconds = 10, trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const MetricDef& d : kEndToEnd) {
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      }
      for (const MetricDef& d : kPerLayer) {
        std::printf("per_layer %s %s\n", d.name, d.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) Usage();
    const char* val = argv[++i];
    if (arg == "--workload") {
      workload_name = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atoi(val);
    } else if (arg == "--trace") {
      trace = std::atoi(val);
    } else if (arg == "--spans") {
      spans_path = val;
    } else {
      Usage();
    }
  }
  if (workload_name.empty() || seconds < 1 || (trace != 0 && trace != 1)) {
    Usage();
  }

  const Environment env = ProbeEnvironment();
  if (std::strcmp(env.build_type, "Release") != 0 || env.sanitized ||
      env.asserts) {
    std::fprintf(stderr,
                 "e2bench: refusing to report from a %s build%s%s; build "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 env.build_type, env.sanitized ? " with sanitizers" : "",
                 env.asserts ? " with assertions" : "");
    return 1;
  }

  HostCalibration calibration;
  if (workload_name == "all") {
    // Every workload, untraced then traced, from this one process.
    bool all_correct = true;
    uint64_t attempted = 0, failed = 0;
    for (const WorkloadSpec& spec : Workloads()) {
      for (int t = 0; t <= 1; ++t) {
        const RunOutcome o =
            RunWorkload(spec, env, calibration, seed, seconds, t, "");
        all_correct = all_correct && o.correct;
        attempted += o.attempted;
        failed += o.failed;
        std::printf("result %s trace=%d %s\n", spec.name.c_str(), t,
                    ResultJson(o.correct, o.attempted, o.failed, o.metrics)
                        .c_str());
      }
    }
    std::printf("all workloads: %s, %llu failed of %llu attempted\n",
                all_correct ? "correct" : "NOT CORRECT",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    return all_correct ? 0 : 1;
  }

  const WorkloadSpec* spec = FindWorkload(workload_name);
  if (spec == nullptr) Usage();
  const RunOutcome o = RunWorkload(*spec, env, calibration, seed, seconds,
                                   trace, spans_path);
  std::printf("%s\n",
              ResultJson(o.correct, o.attempted, o.failed, o.metrics).c_str());
  return o.correct ? 0 : 1;
}
