#ifndef E2NVM_PERFBENCH_BENCH_STATS_H_
#define E2NVM_PERFBENCH_BENCH_STATS_H_

// Arithmetic the benchmark reports with: percentiles, ratios, span self
// time and the result line. Kept free of the store's headers so the unit
// test (bench_stats_test.cc) links nothing else.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2bench {

using Clock = std::chrono::steady_clock;

/// Quantile `q` in [0, 1] of an ascending-sorted sample by the truncated
/// rank convention the repo's BENCH files use: sorted[floor(q * (n - 1))].
/// q <= 0 is the min, q >= 1 the max, an empty sample reads 0.
double Percentile(const std::vector<double>& sorted, double q);

/// Median (Percentile 0.5) of an unsorted sample.
double Median(std::vector<double> v);

/// num / den, and 0 when den is 0: a layer that did no work on a workload
/// reads 0, never NaN or inf.
double Ratio(double num, double den);

/// How much slower than the reference host this one ran: the mean
/// calibration round (`round_s` seconds over `rounds` rounds) divided by
/// the reference round. Timings divide by it and rates multiply by it to
/// read at reference speed. 1, no scaling, when no round was timed.
double HostSlowness(double round_s, uint64_t rounds,
                    double reference_round_us);

/// Latency percentiles per window of consecutive samples. A run reports
/// the median window: a host disturbance that slows a few windows then
/// moves the result far less than it moves one pooled percentile.
struct WindowedLatency {
  /// A window closes once it holds this many samples, enough for a p99
  /// with ten samples beyond it.
  static constexpr size_t kMinSamples = 1000;

  std::vector<double> p50, p99;  // One entry per closed window.
  uint64_t samples = 0;          // Every sample added, closed or not.
  std::vector<double> open;      // The window being filled.

  void Add(double us) {
    open.push_back(us);
    ++samples;
  }
  /// Closes the open window when it holds kMinSamples samples, or with
  /// `last` when no window has closed yet. A short trailing window is
  /// dropped otherwise.
  void Close(bool last);
};

/// One traced interval. Spans of one operation share `op`; `parent` is
/// the index of the enclosing span in the trace, or -1 for a root.
struct Span {
  uint64_t op = 0;
  int32_t parent = -1;
  uint16_t name = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children clipped to the parent, overlaps
/// counted once). Parents may appear before or after their children.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// In-memory span recorder. Disabled, every call is a no-op that returns
/// -1, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void Reserve(size_t n) {
    if (enabled_) spans_.reserve(n);
  }

  /// Opens a span at `start`; close it with End. Returns its index.
  int32_t Begin(uint16_t name, uint64_t op, int32_t parent,
                Clock::time_point start);
  void End(int32_t span, Clock::time_point end);
  /// Records a closed span.
  int32_t Add(uint16_t name, uint64_t op, int32_t parent,
              Clock::time_point start, Clock::time_point end) {
    const int32_t i = Begin(name, op, parent, start);
    End(i, end);
    return i;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as CSV (op,parent,name,start_ns,end_ns,self_ns).
  /// Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path,
                const std::vector<std::string>& names) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Durations (µs) of every span named `name`.
std::vector<double> SpanMicros(const std::vector<Span>& spans, uint16_t name);

/// One reported metric. `samples` is the sample count behind a timing
/// (0 for counts and ratios).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}, each
/// value printed with all its digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace e2bench

#endif  // E2NVM_PERFBENCH_BENCH_STATS_H_
