// The accounting-equivalence suite for the striped (per-lane
// relaxed-atomic) meters introduced by DESIGN.md §13: merged
// energy/flip/wear totals must be BIT-IDENTICAL to the serial path.
//
//  - Single-lane meters reproduce a plain-double reference accumulator
//    exactly (the historical mutex meter's accumulation order).
//  - N-lane meters merged at Snapshot() equal a lane-ordered serial
//    replay of the per-lane charge streams — independent of how many
//    client threads produced them or how they interleaved.
//  - Re-striping (SetLanes / ConfigureAccountingLanes) folds the carry
//    without losing a picojoule or a count.
//  - The same holds one level up for NvmDevice's per-lane stats slabs
//    and end-to-end for a multi-shard ShardedStore.
//
// Registered in the TSan stage of scripts/check.sh: the concurrent
// cases double as data-race detectors for the lock-free charge path.

#include <array>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sharded_store.h"
#include "nvm/device.h"
#include "nvm/energy.h"
#include "schemes/schemes.h"
#include "workload/datasets.h"

namespace e2nvm {
namespace {

using nvm::EnergyDomain;
using nvm::EnergyMeter;
using nvm::EnergyTotals;
using nvm::kNumEnergyDomains;

// ---------------------------------------------------------------------
// Meter-level equivalence.

struct ChargeEvent {
  int domain;
  double pj;
  double ns;
};

/// One lane's deterministic charge stream. Regenerated (same seed) for
/// every run being compared, so concurrent and serial executions see
/// identical per-lane sequences.
std::vector<ChargeEvent> LaneStream(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<ChargeEvent> ev(n);
  for (auto& e : ev) {
    e.domain = static_cast<int>(rng.NextBounded(kNumEnergyDomains));
    e.pj = rng.NextDouble() * 16.0;
    e.ns = rng.NextDouble() * 4.0;
  }
  return ev;
}

void Apply(EnergyMeter& m, size_t lane, const std::vector<ChargeEvent>& ev) {
  for (const auto& e : ev) {
    m.ChargeLane(lane, static_cast<EnergyDomain>(e.domain), e.pj);
    m.AdvanceTimeLane(lane, e.ns);
  }
}

/// The documented merge contract, computed with plain doubles: per-lane
/// serial accumulation, then Snapshot()'s lane-order merge, then
/// TotalPj()'s domain-order sum. This is the reference the striped meter
/// must match bitwise.
EnergyTotals ReferenceMerge(
    const std::vector<std::vector<ChargeEvent>>& lanes) {
  std::vector<std::array<double, kNumEnergyDomains>> pj(
      lanes.size(), std::array<double, kNumEnergyDomains>{});
  std::vector<double> ns(lanes.size(), 0.0);
  for (size_t l = 0; l < lanes.size(); ++l) {
    for (const auto& e : lanes[l]) {
      pj[l][e.domain] += e.pj;
      ns[l] += e.ns;
    }
  }
  EnergyTotals t;
  for (int d = 0; d < kNumEnergyDomains; ++d) {
    for (size_t l = 0; l < lanes.size(); ++l) t.pj[d] += pj[l][d];
  }
  for (size_t l = 0; l < lanes.size(); ++l) t.now_ns += ns[l];
  return t;
}

void ExpectBitIdentical(const EnergyTotals& got, const EnergyTotals& want) {
  for (int d = 0; d < kNumEnergyDomains; ++d) {
    EXPECT_EQ(got.pj[d], want.pj[d]) << "domain " << d;
  }
  EXPECT_EQ(got.now_ns, want.now_ns);
  EXPECT_EQ(got.TotalPj(), want.TotalPj());
}

TEST(EnergyAccounting, SingleLaneMatchesPlainAccumulator) {
  // The default 1-lane meter must reproduce the historical serial
  // accumulator exactly — same values, same order, same rounding.
  auto ev = LaneStream(101, 5000);
  EnergyMeter meter;
  for (const auto& e : ev) {
    meter.Charge(static_cast<EnergyDomain>(e.domain), e.pj);
    meter.AdvanceTime(e.ns);
  }
  ExpectBitIdentical(meter.Snapshot(), ReferenceMerge({ev}));
  // The convenience accessors read through the same Snapshot().
  EXPECT_EQ(meter.TotalPj(), meter.Snapshot().TotalPj());
  EXPECT_EQ(meter.now_ns(), meter.Snapshot().now_ns);
}

TEST(EnergyAccounting, SetLanesFoldsCarryExactly) {
  auto ev = LaneStream(102, 2000);
  EnergyMeter meter;
  Apply(meter, 0, ev);
  const EnergyTotals before = meter.Snapshot();
  meter.SetLanes(4);
  ASSERT_EQ(meter.num_lanes(), 4u);
  ExpectBitIdentical(meter.Snapshot(), before);
  // Fresh lanes still accumulate on top of the folded carry.
  meter.ChargeLane(3, EnergyDomain::kDram, 7.5);
  EXPECT_EQ(meter.DomainPj(EnergyDomain::kDram),
            before.DomainPj(EnergyDomain::kDram) + 7.5);
}

TEST(EnergyAccounting, StripedMergeIsThreadCountInvariant) {
  // The heart of the §13 contract: the merged totals depend only on the
  // per-lane charge streams, NOT on which threads delivered them or how
  // the threads interleaved. Three executions of identical per-lane
  // streams — 4 threads (one per lane), 2 threads (two lanes each,
  // interleaved), and the plain-double reference — must agree bitwise.
  constexpr size_t kLanes = 4;
  std::vector<std::vector<ChargeEvent>> streams;
  for (size_t l = 0; l < kLanes; ++l) {
    streams.push_back(LaneStream(777 + l, 4000));
  }
  const EnergyTotals want = ReferenceMerge(streams);

  {  // One thread per lane.
    EnergyMeter meter;
    meter.SetLanes(kLanes);
    std::vector<std::thread> ts;
    for (size_t l = 0; l < kLanes; ++l) {
      ts.emplace_back([&, l] { Apply(meter, l, streams[l]); });
    }
    for (auto& t : ts) t.join();
    ExpectBitIdentical(meter.Snapshot(), want);
  }
  {  // Two threads, each interleaving two lanes event-by-event. Still
     // single-writer per lane, but a completely different global
     // interleaving — the totals must not move.
    EnergyMeter meter;
    meter.SetLanes(kLanes);
    std::vector<std::thread> ts;
    for (size_t t = 0; t < 2; ++t) {
      ts.emplace_back([&, t] {
        const size_t a = 2 * t, b = 2 * t + 1;
        for (size_t i = 0; i < streams[a].size(); ++i) {
          const auto& ea = streams[a][i];
          meter.ChargeLane(a, static_cast<EnergyDomain>(ea.domain), ea.pj);
          meter.AdvanceTimeLane(a, ea.ns);
          const auto& eb = streams[b][i];
          meter.ChargeLane(b, static_cast<EnergyDomain>(eb.domain), eb.pj);
          meter.AdvanceTimeLane(b, eb.ns);
        }
      });
    }
    for (auto& t : ts) t.join();
    ExpectBitIdentical(meter.Snapshot(), want);
  }
}

TEST(EnergyAccounting, SnapshotIsConsistentUnderConcurrentCharging) {
  // S6 regression: the old accessors each took the mutex separately, so
  // a TotalPj() read concurrent with a charge could mix epochs across
  // domains. Snapshot() returns ONE struct; its TotalPj() must equal the
  // domain-order sum of its own fields, and per-domain values must be
  // monotone across snapshots (single writer storing increasing values;
  // atomic coherence orders the relaxed loads).
  EnergyMeter meter;
  meter.SetLanes(2);
  std::atomic<bool> stop{false};
  std::thread charger([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      meter.ChargeLane(i & 1, static_cast<EnergyDomain>(i % 4), 1.0);
      meter.AdvanceTimeLane(i & 1, 1.0);
      ++i;
    }
  });
  EnergyTotals prev;
  for (int iter = 0; iter < 20000; ++iter) {
    EnergyTotals snap = meter.Snapshot();
    double sum = 0;
    for (int d = 0; d < kNumEnergyDomains; ++d) {
      ASSERT_GE(snap.pj[d], prev.pj[d]) << "domain " << d << " went backward";
      sum += snap.pj[d];
    }
    ASSERT_EQ(snap.TotalPj(), sum) << "torn multi-field read";
    ASSERT_GE(snap.now_ns, prev.now_ns);
    prev = snap;
  }
  stop.store(true, std::memory_order_release);
  charger.join();
}

// ---------------------------------------------------------------------
// Device-level equivalence: per-lane stats slabs routed by segment range.

struct DeviceOp {
  size_t seg;
  bool is_read;
  BitVector data;  // Empty for reads.
};

/// Lane `l`'s stream over its own segment range [l*segs_per_lane, ...).
std::vector<DeviceOp> DeviceStream(uint64_t seed, size_t lane,
                                   size_t segs_per_lane, size_t bits,
                                   size_t n) {
  Rng rng(seed);
  std::vector<DeviceOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    DeviceOp op;
    op.seg = lane * segs_per_lane + rng.NextBounded(segs_per_lane);
    op.is_read = rng.NextDouble() < 0.3;
    if (!op.is_read) {
      op.data = BitVector(bits);
      op.data.Randomize(rng);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void ApplyDeviceStream(nvm::NvmDevice& dev, const std::vector<DeviceOp>& ops) {
  schemes::Dcw dcw;  // Stateless; one per caller keeps lanes independent.
  for (const auto& op : ops) {
    if (op.is_read) {
      dev.ReadSegment(op.seg);
    } else {
      dev.WriteSegment(op.seg, op.data, dcw);
    }
  }
}

void ExpectStatsEqual(const nvm::DeviceStats& a, const nvm::DeviceStats& b) {
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.data_bits_flipped, b.data_bits_flipped);
  EXPECT_EQ(a.aux_bits_flipped, b.aux_bits_flipped);
  EXPECT_EQ(a.set_transitions, b.set_transitions);
  EXPECT_EQ(a.reset_transitions, b.reset_transitions);
  EXPECT_EQ(a.dirty_lines, b.dirty_lines);
  EXPECT_EQ(a.logical_bits_written, b.logical_bits_written);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.torn_writes, b.torn_writes);
  EXPECT_EQ(a.read_disturbs, b.read_disturbs);
  EXPECT_EQ(a.verify_retries, b.verify_retries);
  EXPECT_EQ(a.verify_failures, b.verify_failures);
  EXPECT_EQ(a.repaired_cells, b.repaired_cells);
}

nvm::DeviceConfig TwoLaneConfig() {
  nvm::DeviceConfig c;
  c.num_segments = 16;
  c.segment_bits = 256;
  return c;
}

TEST(EnergyAccounting, DeviceLaneStatsMatchSerialReplay) {
  // Two threads driving disjoint lane ranges concurrently must produce
  // the same merged stats() AND the same merged energy snapshot as one
  // thread replaying the identical streams lane-by-lane in lane order.
  constexpr size_t kSegsPerLane = 8;
  auto s0 = DeviceStream(61, 0, kSegsPerLane, 256, 300);
  auto s1 = DeviceStream(62, 1, kSegsPerLane, 256, 300);

  nvm::NvmDevice concurrent(TwoLaneConfig());
  concurrent.ConfigureAccountingLanes(2, kSegsPerLane);
  {
    std::thread t0([&] { ApplyDeviceStream(concurrent, s0); });
    std::thread t1([&] { ApplyDeviceStream(concurrent, s1); });
    t0.join();
    t1.join();
  }

  nvm::NvmDevice serial(TwoLaneConfig());
  serial.ConfigureAccountingLanes(2, kSegsPerLane);
  ApplyDeviceStream(serial, s0);
  ApplyDeviceStream(serial, s1);

  ExpectStatsEqual(concurrent.stats(), serial.stats());
  ExpectBitIdentical(concurrent.meter().Snapshot(),
                     serial.meter().Snapshot());
  // Per-segment state is untouched by striping: both devices hold the
  // same final cells.
  for (size_t seg = 0; seg < concurrent.num_segments(); ++seg) {
    EXPECT_EQ(concurrent.PeekSegment(seg), serial.PeekSegment(seg))
        << "segment " << seg;
  }
}

TEST(EnergyAccounting, DeviceConfigureLanesFoldsCarryExactly) {
  nvm::NvmDevice dev(TwoLaneConfig());
  auto warm = DeviceStream(63, 0, 16, 256, 50);  // Whole range, lane 0.
  ApplyDeviceStream(dev, warm);
  const nvm::DeviceStats before = dev.stats();
  const EnergyTotals energy_before = dev.meter().Snapshot();
  ASSERT_GT(before.writes, 0u);

  dev.ConfigureAccountingLanes(2, 8);
  ASSERT_EQ(dev.num_accounting_lanes(), 2u);
  EXPECT_EQ(dev.LaneOfSegment(7), 0u);
  EXPECT_EQ(dev.LaneOfSegment(8), 1u);
  ExpectStatsEqual(dev.stats(), before);
  ExpectBitIdentical(dev.meter().Snapshot(), energy_before);
}

// ---------------------------------------------------------------------
// End-to-end: a 4-shard store's merged accounting is invariant to
// whether the per-shard operation streams ran concurrently or serially.

core::ShardedStoreConfig StoreConfig4() {
  core::ShardedStoreConfig cfg;
  cfg.num_shards = 4;
  cfg.shard.num_segments = 64;
  cfg.shard.segment_bits = 256;
  cfg.shard.model.k = 4;
  cfg.shard.model.pretrain_epochs = 1;
  cfg.shard.model.finetune_rounds = 1;
  // Synchronous auto-retrain: retrain CPU charges land on the owning
  // shard's lane from the client thread itself, deterministically per
  // stream.
  cfg.shard.auto_retrain = true;
  cfg.shard.background_retrain = false;
  // Free floor near the 64/4 per-cluster average so a handful of live
  // keys triggers synchronous retrains during the streams — their CPU
  // charges must be part of the totals being compared. (Kept low enough
  // that the test stays unit-sized under TSan.)
  cfg.shard.retrain.min_free_per_cluster = 12;
  cfg.pool_threads = 0;  // No lanes.
  return cfg;
}

struct StoreOp {
  enum Kind { kPut, kGet, kDelete } kind;
  uint64_t key;
  BitVector value;
};

std::vector<StoreOp> ShardStream(uint64_t seed,
                                 const std::vector<uint64_t>& keys,
                                 const workload::BitDataset& ds, size_t n) {
  Rng rng(seed);
  std::vector<StoreOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    StoreOp op;
    op.key = keys[rng.NextBounded(keys.size())];
    const double dice = rng.NextDouble();
    if (dice < 0.60) {
      op.kind = StoreOp::kPut;
      op.value = ds.items[rng.NextBounded(ds.items.size())];
      op.value.FlipRandomBits(rng.NextBounded(4), rng);
    } else if (dice < 0.75) {
      op.kind = StoreOp::kDelete;
    } else {
      op.kind = StoreOp::kGet;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void ApplyShardStream(core::ShardedStore& store,
                      const std::vector<StoreOp>& ops) {
  for (const auto& op : ops) {
    switch (op.kind) {
      case StoreOp::kPut:
        ASSERT_TRUE(store.Put(op.key, op.value).ok());
        break;
      case StoreOp::kGet:
        (void)store.Get(op.key);  // NotFound is fine.
        break;
      case StoreOp::kDelete:
        (void)store.Delete(op.key);  // Ditto.
        break;
    }
  }
}

TEST(EnergyAccounting, ShardedStoreConcurrentMatchesSerialReplay) {
  workload::ProtoConfig pc;
  pc.dim = 256;
  pc.num_classes = 4;
  pc.samples = 96;
  pc.noise = 0.03;
  pc.seed = 71;
  auto ds = workload::MakeProtoDataset(pc);

  auto make_store = [&] {
    auto store_or = core::ShardedStore::Create(StoreConfig4());
    EXPECT_TRUE(store_or.ok());
    auto store = std::move(*store_or);
    store->Seed(ds);
    EXPECT_TRUE(store->Bootstrap().ok());
    return store;
  };
  auto concurrent = make_store();
  auto serial = make_store();

  // 12 keys per shard (ownership is hash-derived, identical for both
  // stores), one fixed stream per shard.
  std::vector<std::vector<uint64_t>> keys(4);
  for (uint64_t key = 0; key < 100000; ++key) {
    auto& bucket = keys[concurrent->ShardOf(key)];
    if (bucket.size() < 12) bucket.push_back(key);
  }
  std::vector<std::vector<StoreOp>> streams;
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_EQ(keys[s].size(), 12u) << "shard " << s;
    streams.push_back(ShardStream(9000 + s, keys[s], ds, 80));
  }

  {  // One client thread per shard, all four running at once.
    std::vector<std::thread> ts;
    for (size_t s = 0; s < 4; ++s) {
      ts.emplace_back([&, s] { ApplyShardStream(*concurrent, streams[s]); });
    }
    for (auto& t : ts) t.join();
  }
  for (size_t s = 0; s < 4; ++s) {  // Same streams, back to back.
    ApplyShardStream(*serial, streams[s]);
  }

  auto csnap = concurrent->TakeSnapshot();
  auto ssnap = serial->TakeSnapshot();
  // The §13 claim, end to end: energy, flips and wear merged from the
  // per-shard lanes are byte-identical to the serial execution.
  EXPECT_EQ(csnap.total_pj, ssnap.total_pj);
  ExpectBitIdentical(concurrent->meter().Snapshot(),
                     serial->meter().Snapshot());
  ExpectStatsEqual(csnap.device, ssnap.device);
  EXPECT_EQ(csnap.keys, ssnap.keys);
  EXPECT_EQ(csnap.engine.placements, ssnap.engine.placements);
  EXPECT_EQ(csnap.engine.releases, ssnap.engine.releases);
  EXPECT_EQ(csnap.engine.retrains, ssnap.engine.retrains);
  EXPECT_EQ(csnap.engine.predict_flops, ssnap.engine.predict_flops);
  EXPECT_EQ(csnap.engine.train_flops, ssnap.engine.train_flops);
  // Wear landed on the same segments in both executions.
  EXPECT_EQ(concurrent->device().segment_write_counts(),
            serial->device().segment_write_counts());
  // The retrain path demonstrably ran, so its CPU charges are part of
  // what just matched.
  EXPECT_GT(csnap.engine.retrains, 0u);
}

}  // namespace
}  // namespace e2nvm
