#include "probes.h"

#include <algorithm>
#include <memory>

#include "common/byte_ring.h"
#include "core/shard_journal.h"
#include "index/rbtree.h"
#include "ml/inference.h"
#include "ml/matrix.h"
#include "net/protocol.h"
#include "nvm/controller.h"
#include "nvm/device.h"
#include "schemes/schemes.h"

namespace e2bench {

namespace core = e2nvm::core;
namespace ml = e2nvm::ml;
namespace net = e2nvm::net;
namespace nvm = e2nvm::nvm;
using e2nvm::BitVector;

namespace {

constexpr size_t kRepeats = 3;          // Loop probes report the median.
constexpr size_t kBatchRows = 8;        // Refine batch and b8 batch.
constexpr size_t kPartialFitSteps = 16;
constexpr size_t kCheckpoints = 5;

volatile uint64_t g_sink = 0;  // Keeps probe results observable.

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Median over kRepeats of the mean µs per item of `loop()`, which
/// processes `items` items.
template <typename Fn>
double LoopMicros(size_t items, Fn&& loop) {
  if (items == 0) return 0;
  std::vector<double> means;
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    const Clock::time_point a = Clock::now();
    loop();
    means.push_back(Micros(Clock::now() - a) / static_cast<double>(items));
  }
  return Median(means);
}

/// ml.assign_us_b1: the serving model of each PUT's shard encodes and
/// assigns that PUT's value alone, in stream order (distinct rows, so
/// the encoder is not kept hot by one repeated row).
double AssignB1(core::ShardedStore& store, const Captured& cap, size_t bits) {
  ml::InferenceScratch scratch;
  scratch.in.EnsureShape(1, bits);
  double total = 0;
  size_t n = 0;
  for (const auto& [key, value] : cap.puts) {
    value.AppendFloatsTo(scratch.in.Row(0));
    auto& model = store.shard(store.ShardOf(key)).engine().clusterer();
    if (n == 0) model.AssignScratch(&scratch);  // Sizes the scratch.
    const Clock::time_point a = Clock::now();
    model.AssignScratch(&scratch);
    total += Micros(Clock::now() - a);
    ++n;
  }
  return Ratio(total, static_cast<double>(n));
}

/// ml.assign_us_per_row_b8: batches of 8 same-shard values, the shape of
/// a pipelined shard batch, taken round-robin over shards.
double AssignB8(core::ShardedStore& store, const Captured& cap, size_t bits) {
  std::vector<std::vector<const BitVector*>> by_shard(store.num_shards());
  for (const auto& [key, value] : cap.puts) {
    by_shard[store.ShardOf(key)].push_back(&value);
  }
  ml::InferenceScratch scratch;
  scratch.in.EnsureShape(kBatchRows, bits);
  double total = 0;
  size_t rows = 0;
  bool warm = false;
  for (size_t first = 0;; first += kBatchRows) {
    bool any = false;
    for (size_t s = 0; s < by_shard.size(); ++s) {
      if (first + kBatchRows > by_shard[s].size()) continue;
      any = true;
      for (size_t r = 0; r < kBatchRows; ++r) {
        by_shard[s][first + r]->AppendFloatsTo(scratch.in.Row(r));
      }
      auto& model = store.shard(s).engine().clusterer();
      if (!warm) model.AssignScratch(&scratch);
      warm = true;
      const Clock::time_point a = Clock::now();
      model.AssignScratch(&scratch);
      total += Micros(Clock::now() - a);
      rows += kBatchRows;
    }
    if (!any) break;
  }
  return Ratio(total, static_cast<double>(rows));
}

/// ml.train_ms and ml.partial_fit_us: a clone of shard 0's serving model
/// trains on the shard's current free contents, then refines on batches
/// of captured values. Only the clone changes.
void TrainAndRefine(core::ShardedStore& store, const Captured& cap,
                    size_t bits, ProbeResults* p) {
  core::E2KvStore& shard = store.shard(0);
  const std::vector<uint64_t> free_addrs = shard.engine().pool().AllFree();
  ml::Matrix contents(free_addrs.size(), bits);
  for (size_t i = 0; i < free_addrs.size(); ++i) {
    shard.controller().Peek(free_addrs[i]).AppendFloatsTo(contents.Row(i));
  }
  const Clock::time_point a = Clock::now();
  auto clone = shard.engine().clusterer().CloneUntrained();
  const bool trained = clone->Train(contents).ok();
  p->train_ms = Micros(Clock::now() - a) / 1e3;
  if (!trained || !clone->SupportsPartialFit()) return;

  ml::Matrix batch(kBatchRows, bits);
  double total = 0;
  size_t steps = 0;
  for (size_t first = 0; steps < kPartialFitSteps &&
                         first + kBatchRows <= cap.puts.size();
       first += kBatchRows) {
    for (size_t r = 0; r < kBatchRows; ++r) {
      cap.puts[first + r].second.AppendFloatsTo(batch.Row(r));
    }
    const Clock::time_point b = Clock::now();
    if (!clone->PartialFit(batch).ok()) return;
    total += Micros(Clock::now() - b);
    ++steps;
  }
  p->partial_fit_us = Ratio(total, static_cast<double>(steps));
}

/// journal.append_us and journal.checkpoint_us on a journal the probe
/// owns: captured PUTs appended in order, then checkpoints of a record
/// set the size of shard 0's live state.
void JournalProbes(core::ShardedStore& store, const WorkloadSpec& spec,
                   const Captured& cap, ProbeResults* p) {
  std::vector<core::ShardJournal::Record> live;
  for (uint64_t k = 0; k < spec.records; ++k) {
    if (store.ShardOf(k) != 0) continue;
    auto v = store.shard(0).PeekValue(k);
    if (v.ok()) live.push_back({core::ShardJournal::Op::kPut, k, *v});
  }
  const size_t capacity = std::max<size_t>(4096, live.size());
  std::vector<double> append_us;
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    auto journal_or = core::ShardJournal::Create(capacity, spec.value_bits);
    if (!journal_or.ok()) return;
    core::ShardJournal& journal = **journal_or;
    const size_t n = std::min(cap.puts.size(), capacity);
    const Clock::time_point a = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      (void)journal.Append(core::ShardJournal::Op::kPut, cap.puts[i].first,
                           cap.puts[i].second);
    }
    append_us.push_back(Ratio(Micros(Clock::now() - a),
                              static_cast<double>(n)));
    if (rep + 1 < kRepeats) continue;
    std::vector<double> checkpoint_us;
    for (size_t c = 0; c < kCheckpoints; ++c) {
      const Clock::time_point b = Clock::now();
      (void)journal.Checkpoint(live);
      checkpoint_us.push_back(Micros(Clock::now() - b));
    }
    p->journal_checkpoint_us = Median(checkpoint_us);
  }
  p->journal_append_us = Median(append_us);
}

/// nvm.write_us: DCW writes of the captured values through a controller
/// over a device the probe owns, one shard's size.
double NvmWrite(const WorkloadSpec& spec, const Captured& cap) {
  if (cap.puts.empty()) return 0;
  nvm::DeviceConfig dc;
  dc.num_segments = spec.segments_per_shard;
  dc.segment_bits = spec.value_bits;
  nvm::NvmDevice device(dc);
  e2nvm::schemes::Dcw dcw;
  nvm::MemoryController ctrl(&device, &dcw, dc.num_segments, 0);
  for (size_t s = 0; s < dc.num_segments; ++s) {
    ctrl.Seed(s, cap.puts[s % cap.puts.size()].second);
  }
  nvm::WriteResult result;
  size_t seg = 0;
  return LoopMicros(cap.puts.size(), [&] {
    for (const auto& kv : cap.puts) {
      ctrl.WriteInto(seg, kv.second, &result);
      seg = (seg + 1) % dc.num_segments;
    }
  });
}

}  // namespace

ProbeResults RunProbes(core::ShardedStore& store, const WorkloadSpec& spec,
                       const Captured& cap) {
  ProbeResults p;
  const size_t bits = spec.value_bits;
  p.assign_us_b1 = AssignB1(store, cap, bits);
  p.assign_us_per_row_b8 = AssignB8(store, cap, bits);
  TrainAndRefine(store, cap, bits, &p);

  // store.peek_us: the per-key cost of a journal checkpoint.
  p.peek_us = LoopMicros(spec.records, [&] {
    for (uint64_t k = 0; k < spec.records; ++k) {
      auto v = store.shard(store.ShardOf(k)).PeekValue(k);
      if (v.ok()) g_sink = g_sink + v->size();
    }
  });

  JournalProbes(store, spec, cap, &p);
  p.nvm_write_us = NvmWrite(spec, cap);

  // index.get_us: RbTree lookups of the stream's keys.
  e2nvm::index::RbTree tree;
  for (uint64_t k = 0; k < spec.records; ++k) tree.Put(k, k);
  p.index_get_us = LoopMicros(cap.keys.size(), [&] {
    uint64_t sum = 0;
    for (uint64_t key : cap.keys) sum += tree.Get(key).value_or(0);
    g_sink = g_sink + sum;
  });

  // net.codec_us: encode one PUT frame and decode it again.
  e2nvm::ByteRing ring;
  p.codec_us = LoopMicros(cap.puts.size(), [&] {
    uint32_t seq = 0;
    for (const auto& [key, value] : cap.puts) {
      net::EncodePutRequest(&ring, seq++, key, value);
      net::Request req;
      size_t frame = 0;
      if (net::DecodeRequest(ring.data(), ring.size(),
                             net::kDefaultMaxFrameBytes, &req,
                             &frame) != net::Decoded::kFrame) {
        ring.Consume(ring.size());
        continue;
      }
      g_sink = g_sink + req.key;
      ring.Consume(frame);
    }
  });
  return p;
}

}  // namespace e2bench
