// Unit tests of the benchmark's own arithmetic. Run by
// `python3 perfbench/run.py --self-test`; exits nonzero on a failure.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "host_speed.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

using namespace e2bench;

void TestPercentileConvention() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // sorted[floor(q * (n - 1))]: truncated rank, no interpolation.
  CHECK(Percentile(v, 0.5) == 500);
  CHECK(Percentile(v, 0.99) == 990);
  CHECK(Percentile(v, 0.999) == 999);
  CHECK(Percentile(v, 1.0) == 1000);
  CHECK(Percentile(v, 0.0) == 1);
  CHECK(Percentile({}, 0.5) == 0);
  CHECK(Percentile({7}, 0.99) == 7);
  CHECK(Percentile({1, 2}, 0.5) == 1);
  CHECK(Median({5, 1, 4, 2, 3}) == 3);
  CHECK(Median({4, 1, 3, 2}) == 2);

}

void TestRatioWithZeroBase() {
  CHECK(Ratio(3, 4) == 0.75);
  CHECK(Ratio(0, 0) == 0);
  CHECK(Ratio(5, 0) == 0);
  CHECK(Ratio(-2, 4) == -0.5);
}

void TestHostSlowness() {
  // 40 rounds in 0.06 s: 1500 µs a round against a 1000 µs reference.
  CHECK(std::fabs(HostSlowness(0.06, 40, 1000) - 1.5) < 1e-12);
  CHECK(std::fabs(HostSlowness(0.02, 40, 1000) - 0.5) < 1e-12);
  // Nothing timed, or no reference: timings stay as measured.
  CHECK(HostSlowness(0, 0, 1000) == 1);
  CHECK(HostSlowness(0.5, 0, 1000) == 1);
  CHECK(HostSlowness(0.5, 10, 0) == 1);
}

void TestHostCalibration() {
  HostCalibration a, b;
  CHECK(a.resident_bytes() == 12u << 20);
  for (int i = 0; i < 3; ++i) {
    CHECK(a.Round() > 0);
    b.Round();
  }
  // The same work every time: equal digests after equal rounds, and the
  // digest moves with every round.
  CHECK(a.checksum() == b.checksum());
  const uint64_t before = a.checksum();
  a.Round();
  CHECK(a.checksum() != before);
}

Span MakeSpan(int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  // Root [0, 100] with overlapping children [10, 30] and [20, 50], one
  // child sticking out past the root's end [90, 120] and one entirely
  // outside it [200, 300]; [10, 30] has a grandchild [12, 18].
  std::vector<Span> spans = {
      MakeSpan(-1, 0, 100),  MakeSpan(0, 10, 30),   MakeSpan(0, 20, 50),
      MakeSpan(0, 90, 120),  MakeSpan(0, 200, 300), MakeSpan(1, 12, 18),
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  CHECK(self[0] == 100 - (40 + 10));  // Covered: [10, 50] and [90, 100].
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[5] == 6);

  // A parent recorded after its children (closed last) works the same.
  std::vector<Span> late = {MakeSpan(2, 5, 15), MakeSpan(2, 15, 25),
                            MakeSpan(-1, 0, 40)};
  CHECK(SelfTimes(late)[2] == 20);

  // Identical children count once.
  std::vector<Span> dup = {MakeSpan(-1, 0, 10), MakeSpan(0, 2, 6),
                           MakeSpan(0, 2, 6)};
  CHECK(SelfTimes(dup)[0] == 6);
}

void TestTracer() {
  const Clock::time_point t0 = Clock::now();
  Tracer off(false);
  CHECK(off.Begin(1, 7, -1, t0) == -1);
  off.Add(1, 7, -1, t0, t0);
  CHECK(off.spans().empty());

  Tracer on(true);
  const int32_t root = on.Begin(0, 7, -1, t0);
  on.Add(2, 7, root, t0 + std::chrono::microseconds(1),
         t0 + std::chrono::microseconds(3));
  on.End(root, t0 + std::chrono::microseconds(4));
  CHECK(on.spans().size() == 2);
  CHECK(on.spans()[1].parent == root);
  CHECK(on.spans()[1].op == 7);
  const std::vector<double> us = SpanMicros(on.spans(), 2);
  CHECK(us.size() == 1 && std::fabs(us[0] - 2.0) < 1e-9);
  CHECK(SelfTimes(on.spans())[root] == 2000);
}

void TestWindowedLatency() {
  WindowedLatency w;
  for (int i = 0; i < 999; ++i) w.Add(i);
  w.Close(false);  // 999 samples: too few for a p99, stays open.
  CHECK(w.p50.empty() && w.open.size() == 999);
  w.Add(999);
  w.Close(false);
  // The p99 of 1000 samples, 989, has exactly ten samples beyond it.
  CHECK(w.p50.size() == 1 && w.p50[0] == 499 && w.p99[0] == 989);
  CHECK(w.open.empty() && w.samples == 1000);
  for (int i = 0; i < 10; ++i) w.Add(5);
  w.Close(true);  // Short trailing window after a closed one: dropped.
  CHECK(w.p50.size() == 1 && w.open.empty() && w.samples == 1010);

  WindowedLatency only;
  only.Add(3);
  only.Add(1);
  only.Close(true);  // The only window closes however short it is.
  CHECK(only.p50.size() == 1 && only.p50[0] == 1 && only.p99[0] == 1);
}

void TestResultJson() {
  const std::string j = ResultJson(
      true, 10, 0, {{"x", 0.1, "ms", 3}, {"y", 2, "count", 0}});
  CHECK(j ==
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
        "{\"x\": {\"value\": 0.10000000000000001, \"unit\": \"ms\"}, "
        "\"y\": {\"value\": 2, \"unit\": \"count\"}}}");
  CHECK(ResultJson(false, 1, 1, {{"z", std::nan(""), "s", 0}})
            .find("\"value\": null") != std::string::npos);
}

}  // namespace

int main() {
  TestPercentileConvention();
  TestRatioWithZeroBase();
  TestHostSlowness();
  TestHostCalibration();
  TestSelfTime();
  TestTracer();
  TestWindowedLatency();
  TestResultJson();
  if (g_failures > 0) {
    std::fprintf(stderr, "e2bench_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("e2bench_test: all checks passed\n");
  return 0;
}
