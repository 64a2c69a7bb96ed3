#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace e2bench {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  return sorted[static_cast<size_t>(q * static_cast<double>(sorted.size() - 1))];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double HostSlowness(double round_s, uint64_t rounds,
                    double reference_round_us) {
  if (rounds == 0 || round_s <= 0.0 || reference_round_us <= 0.0) return 1.0;
  return round_s * 1e6 / static_cast<double>(rounds) / reference_round_us;
}

void WindowedLatency::Close(bool last) {
  if (open.size() >= kMinSamples || (last && p50.empty() && !open.empty())) {
    std::sort(open.begin(), open.end());
    p50.push_back(Percentile(open, 0.5));
    p99.push_back(Percentile(open, 0.99));
    open.clear();
  } else if (last) {
    open.clear();
  }
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

int32_t Tracer::Begin(uint16_t name, uint64_t op, int32_t parent,
                      Clock::time_point start) {
  if (!enabled_) return -1;
  Span s;
  s.op = op;
  s.parent = parent;
  s.name = name;
  s.start_ns = Ns(start);
  s.end_ns = s.start_ns;
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span, Clock::time_point end) {
  if (span >= 0) spans_[span].end_ns = Ns(end);
}

bool Tracer::WriteCsv(const std::string& path,
                      const std::vector<std::string>& names) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes(spans_);
  std::fprintf(f, "op,parent,name,start_ns,end_ns,self_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu,%d,%s,%lld,%lld,%lld\n",
                 static_cast<unsigned long long>(s.op), s.parent,
                 s.name < names.size() ? names[s.name].c_str() : "?",
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::vector<double> SpanMicros(const std::vector<Span>& spans, uint16_t name) {
  std::vector<double> us;
  for (const Span& s : spans) {
    if (s.name == name) us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return us;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN/inf; a non-finite value is a benchmark bug and is
    // printed as null so the result line fails validation loudly.
    if (std::isfinite(m.value)) {
      std::snprintf(num, sizeof(num), "%.17g", m.value);
    } else {
      std::snprintf(num, sizeof(num), "null");
    }
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2bench
