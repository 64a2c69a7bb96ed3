#ifndef E2NVM_BENCH_BENCH_UTIL_H_
#define E2NVM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/e2_model.h"
#include "core/placement_engine.h"
#include "index/value_placer.h"
#include "nvm/controller.h"
#include "nvm/device.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"

namespace e2nvm::bench {

/// A device + controller + (optional) placement engine stack shared by the
/// figure harnesses.
struct Rig {
  Rig(size_t num_segments, size_t segment_bits, uint64_t psi,
      nvm::WriteScheme* scheme, bool track_bit_wear = false)
      : num_segments(num_segments) {
    nvm::DeviceConfig dc;
    dc.num_segments = num_segments + (psi > 0 ? 1 : 0);
    dc.segment_bits = segment_bits;
    dc.track_bit_wear = track_bit_wear;
    device = std::make_unique<nvm::NvmDevice>(dc);
    ctrl = std::make_unique<nvm::MemoryController>(device.get(), scheme,
                                                   num_segments, psi);
  }

  void SeedFrom(const workload::BitDataset& ds) {
    auto sized = workload::ResizeItems(ds, ctrl->segment_bits());
    for (size_t i = 0; i < num_segments; ++i) {
      ctrl->Seed(i, sized.items[i % sized.items.size()]);
    }
  }

  size_t num_segments;
  std::unique_ptr<nvm::NvmDevice> device;
  std::unique_ptr<nvm::MemoryController> ctrl;
};

/// Outcome of streaming writes through a placer.
struct StreamResult {
  uint64_t writes = 0;       // Device writes incl. wear-level migrations.
  uint64_t user_writes = 0;  // Values placed by the workload.
  uint64_t flips = 0;
  uint64_t dirty_lines = 0;
  uint64_t bits_written = 0;
  double pj = 0;          // PMem write energy over the stream.
  double total_pj = 0;    // All domains.
  double wall_ms = 0;     // Host wall-clock of the stream (prediction cost).

  /// Flips per *user* write: migration flips are charged to the user
  /// writes that triggered them (the paper's per-write metric).
  double FlipsPerWrite() const {
    return user_writes ? static_cast<double>(flips) / user_writes : 0;
  }
  double FlipsPerDataBit() const {
    return bits_written ? static_cast<double>(flips) / bits_written : 0;
  }
  /// Bits updated per cache-line access (Fig 10's y-axis).
  double FlipsPerLine() const {
    return dirty_lines ? static_cast<double>(flips) / dirty_lines : 0;
  }
  double PjPerWrite() const {
    return user_writes ? pj / user_writes : 0;
  }
  /// Energy per dirtied cache line (Fig 11's y-axis).
  double PjPerLine() const {
    return dirty_lines ? pj / dirty_lines : 0;
  }
};

/// Streams `items` through `placer`: every write places one item; with
/// probability `delete_fraction` a previously placed address is released
/// afterwards (keeping the pool from draining). Device counters are
/// deltas over the stream only.
inline StreamResult RunStream(index::ValuePlacer& placer,
                              nvm::NvmDevice& device,
                              const std::vector<BitVector>& items,
                              double delete_fraction, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> live;
  nvm::DeviceStats before = device.stats();
  double pj_before =
      device.meter().DomainPj(nvm::EnergyDomain::kPmemWrite);
  double total_before = device.meter().TotalPj();
  auto t0 = std::chrono::steady_clock::now();
  uint64_t placed = 0;
  for (const BitVector& item : items) {
    auto addr = placer.Place(item);
    if (!addr.ok()) break;
    ++placed;
    live.push_back(*addr);
    if (!live.empty() && rng.NextDouble() < delete_fraction) {
      size_t idx = rng.NextBounded(live.size());
      placer.Release(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  StreamResult r;
  nvm::DeviceStats after = device.stats();
  r.writes = after.writes - before.writes;
  r.user_writes = placed;
  r.flips = after.total_bits_flipped() - before.total_bits_flipped();
  r.dirty_lines = after.dirty_lines - before.dirty_lines;
  r.bits_written = after.logical_bits_written - before.logical_bits_written;
  r.pj = device.meter().DomainPj(nvm::EnergyDomain::kPmemWrite) - pj_before;
  r.total_pj = device.meter().TotalPj() - total_before;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

/// Builds and bootstraps a placement engine over the whole rig, scanning
/// `scan_width` free addresses per placement (1: the paper's first
/// free); the engine owns `clusterer`, and engine->clusterer() is the
/// trained model.
inline std::unique_ptr<core::PlacementEngine> MakeEngine(
    Rig& rig, std::unique_ptr<placement::ContentClusterer> clusterer,
    size_t scan_width = 1) {
  core::PlacementEngine::Config ec;
  ec.first_segment = 0;
  ec.num_segments = rig.num_segments;
  ec.scan_width = scan_width;
  auto engine = std::make_unique<core::PlacementEngine>(
      rig.ctrl.get(), std::move(clusterer), ec);
  Status s = engine->Bootstrap();
  if (!s.ok()) {
    std::fprintf(stderr, "engine bootstrap failed: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
  return engine;
}

/// Default E2 model config for a given geometry.
inline core::E2ModelConfig DefaultModel(size_t input_dim, size_t k,
                                        uint64_t seed = 42) {
  core::E2ModelConfig cfg;
  cfg.input_dim = input_dim;
  cfg.k = k;
  cfg.hidden_dim = 64;
  cfg.latent_dim = 10;
  cfg.pretrain_epochs = 6;
  cfg.finetune_rounds = 1;
  cfg.seed = seed;
  return cfg;
}

/// Prints a header row announcing which paper artifact a bench reproduces.
inline void PrintBanner(const char* figure, const char* description) {
  std::printf("### %s — %s\n", figure, description);
}

// --- Latency percentiles (shared by every BENCH_*.json emitter) -------

/// Quantile `q` in [0, 1] of an ascending-sorted sample by the
/// truncated-rank convention every bench here has always used:
/// sorted[floor(q * (n - 1))]. q=1 is the max. Returns 0 on an empty
/// sample. (Unit-tested in tests/bench_util_test.cc.)
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  return sorted[static_cast<size_t>(q * (sorted.size() - 1))];
}

/// The tail grid every serving/store benchmark reports: a rate plus
/// p50/p99/p99.9/max latency in microseconds.
struct TailStats {
  double ops_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;
};

/// Sorts `us` in place and summarizes it; `ops` is the operation count
/// the rate is quoted over (it may differ from us.size() when one sample
/// covers a batch of operations).
inline TailStats SummarizeLatencies(std::vector<double>& us,
                                    double seconds, uint64_t ops) {
  TailStats s;
  if (us.empty() || seconds <= 0) return s;
  std::sort(us.begin(), us.end());
  s.ops_s = static_cast<double>(ops) / seconds;
  s.p50_us = us[us.size() / 2];
  s.p99_us = Percentile(us, 0.99);
  s.p999_us = Percentile(us, 0.999);
  s.max_us = us.back();
  return s;
}

// --- Minimal JSON emitter (shared by every BENCH_*.json writer) -------

/// Writes the two-space-indented JSON the BENCH_* files use (one field
/// per line, fixed key order = caller's call order), so per-PR diffs of
/// the trajectory files stay readable and the fprintf format strings are
/// not copy-pasted across benches. The scripts that read these files
/// (check_bench.py, bench_ratio.py) parse them as JSON, so the line
/// layout is for people, not a format contract. No escaping —
/// keys/values are identifier-ish by construction.
class JsonWriter {
 public:
  /// Opens the root object. Finish() closes it (and the file stays the
  /// caller's to close).
  explicit JsonWriter(std::FILE* f) : f_(f) {
    std::fputc('{', f_);
    first_.push_back(true);
  }

  /// Named inside an object; pass nullptr inside an array.
  void BeginObject(const char* name = nullptr) { Open(name, '{'); }
  void EndObject() { Close('}'); }
  void BeginArray(const char* name) { Open(name, '['); }
  void EndArray() { Close(']'); }

  void Field(const char* name, double v, int precision = 2) {
    Pre(name);
    std::fprintf(f_, "%.*f", precision, v);
  }
  void Field(const char* name, uint64_t v) {
    Pre(name);
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(v));
  }
  void Field(const char* name, unsigned v) {
    Field(name, static_cast<uint64_t>(v));
  }
  void Field(const char* name, int v) {
    Pre(name);
    std::fprintf(f_, "%d", v);
  }
  void Field(const char* name, const char* v) {
    Pre(name);
    std::fprintf(f_, "\"%s\"", v);
  }
  void Field(const char* name, bool v) {
    Pre(name);
    std::fputs(v ? "true" : "false", f_);
  }

  /// One tail-grid section under `name` with the canonical key names.
  void TailSection(const char* name, const TailStats& s) {
    BeginObject(name);
    Field("ops_per_s", s.ops_s, 1);
    Field("p50_us", s.p50_us);
    Field("p99_us", s.p99_us);
    Field("p999_us", s.p999_us);
    Field("max_us", s.max_us);
    EndObject();
  }

  /// Closes the root object; the writer must not be used afterwards.
  void Finish() {
    Close('\0');
    std::fputc('\n', f_);
  }

 private:
  void Pre(const char* name) {
    if (!first_.back()) std::fputc(',', f_);
    first_.back() = false;
    std::fputc('\n', f_);
    for (size_t i = 0; i < 2 * first_.size(); ++i) std::fputc(' ', f_);
    if (name != nullptr) std::fprintf(f_, "\"%s\": ", name);
  }
  void Open(const char* name, char bracket) {
    Pre(name);
    std::fputc(bracket, f_);
    first_.push_back(true);
  }
  void Close(char bracket) {
    const bool empty = first_.back();
    first_.pop_back();
    if (!empty) {
      std::fputc('\n', f_);
      for (size_t i = 0; i < 2 * first_.size(); ++i) std::fputc(' ', f_);
    }
    std::fputc(bracket == '\0' ? '}' : bracket, f_);
  }

  std::FILE* f_;
  std::vector<bool> first_;  // Per open scope: no field emitted yet.
};

}  // namespace e2nvm::bench

#endif  // E2NVM_BENCH_BENCH_UTIL_H_
