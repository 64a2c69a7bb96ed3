#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/sharded_store.h"
#include "pmem/allocator.h"
#include "pmem/pool.h"
#include "pmem/tx.h"
#include "workload/datasets.h"

namespace e2nvm::pmem {
namespace {

constexpr size_t kPoolSize = 1024 * 1024;
constexpr size_t kRanges = 3;
const char* const kOld[kRanges] = {"OLD_AAAA", "OLD_BBBB", "OLD_CCCC"};
const char* const kNew[kRanges] = {"NEW_aaaa", "NEW_bbbb", "NEW_cccc"};
constexpr size_t kLen = 9;  // Includes the terminator.

struct TxRunResult {
  bool fired_in_body = false;       // Crash happened before Commit.
  uint64_t persists_in_body = 0;    // Persists from Begin through mutation.
  std::vector<PoolOffset> offs;     // The three ranges.
  std::vector<uint8_t> image;       // Captured pool image (if fired).
};

/// Builds a fresh pool with kRanges committed ranges, then runs one
/// multi-range transaction overwriting all of them with a CrashPoint
/// armed at the k-th persist of the transaction body.
TxRunResult RunTxWithCrashAt(uint64_t k) {
  TxRunResult out;
  auto pool = Pool::CreateAnonymous("crash", kPoolSize);
  EXPECT_TRUE(pool.ok());
  Allocator alloc(pool->get());
  for (size_t i = 0; i < kRanges; ++i) {
    PoolOffset off = alloc.Alloc(64).value();
    std::memcpy((*pool)->Direct(off), kOld[i], kLen);
    (*pool)->Persist(off, kLen);
    out.offs.push_back(off);
  }

  CrashPoint cp;
  (*pool)->SetCrashPoint(&cp);
  cp.ArmAt(k);  // Counting starts here: setup persists are excluded.

  Transaction tx(pool->get());
  EXPECT_TRUE(tx.Begin().ok());
  for (size_t i = 0; i < kRanges; ++i) {
    EXPECT_TRUE(tx.AddRange(out.offs[i], kLen).ok());
    std::memcpy((*pool)->Direct(out.offs[i]), kNew[i], kLen);
    (*pool)->Persist(out.offs[i], kLen);
  }
  out.fired_in_body = cp.fired();
  out.persists_in_body = cp.persists_seen();
  tx.Commit();
  if (cp.fired()) out.image = cp.image();
  (*pool)->SetCrashPoint(nullptr);
  return out;
}

TEST(CrashRecoveryTest, EveryPersistPointRestoresPreTxImage) {
  // First pass just counts the persist points inside the tx body.
  uint64_t body = RunTxWithCrashAt(1'000'000).persists_in_body;
  ASSERT_GE(body, 6u);  // Begin + 3 x (snapshot + data persist) at least.

  for (uint64_t k = 0; k < body; ++k) {
    TxRunResult run = RunTxWithCrashAt(k);
    ASSERT_TRUE(run.fired_in_body) << "k=" << k;

    auto reopened = Pool::OpenFromImage(run.image, "crash");
    ASSERT_TRUE(reopened.ok()) << "k=" << k << ": "
                               << reopened.status().ToString();
    EXPECT_TRUE((*reopened)->recovered()) << "k=" << k;
    for (size_t i = 0; i < kRanges; ++i) {
      EXPECT_STREQ(
          static_cast<const char*>((*reopened)->Direct(run.offs[i])),
          kOld[i])
          << "power loss at persist " << k << " corrupted range " << i;
    }
  }
}

TEST(CrashRecoveryTest, CrashAtCommitKeepsNewData) {
  uint64_t body = RunTxWithCrashAt(1'000'000).persists_in_body;
  // The commit persist is the first one after the body: a power loss
  // right after it must preserve the transaction.
  TxRunResult run = RunTxWithCrashAt(body);
  ASSERT_FALSE(run.fired_in_body);
  ASSERT_FALSE(run.image.empty());

  auto reopened = Pool::OpenFromImage(run.image, "crash");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (size_t i = 0; i < kRanges; ++i) {
    EXPECT_STREQ(
        static_cast<const char*>((*reopened)->Direct(run.offs[i])),
        kNew[i]);
  }
}

TEST(CrashRecoveryTest, LogFullTxAbortRestoresSnapshottedRanges) {
  auto pool = Pool::CreateAnonymous("logfull", kPoolSize);
  ASSERT_TRUE(pool.ok());
  Allocator alloc(pool->get());
  PoolOffset off = alloc.Alloc(64).value();
  std::memcpy((*pool)->Direct(off), kOld[0], kLen);
  (*pool)->Persist(off, kLen);

  TxLog log(pool->get(), (*pool)->header()->tx_log);
  ASSERT_TRUE(log.Begin().ok());
  ASSERT_TRUE(log.Snapshot(off, kLen).ok());
  std::memcpy((*pool)->Direct(off), kNew[0], kLen);

  // Fill the log until Snapshot reports exhaustion — the tx cannot grow.
  Status last = Status::Ok();
  for (int i = 0; i < 1000 && last.ok(); ++i) {
    last = log.Snapshot(Pool::kHeaderBytes + TxLog::kLogBytes, 8000);
  }
  ASSERT_EQ(last.code(), StatusCode::kResourceExhausted);

  // The only sane client response is to abort; the snapshotted range
  // must roll back even though later snapshots were refused.
  log.Abort();
  EXPECT_STREQ(static_cast<const char*>((*pool)->Direct(off)), kOld[0]);
  EXPECT_FALSE(log.active());
}

TEST(CrashRecoveryTest, OpenFromImageValidatesHeader) {
  std::vector<uint8_t> garbage(kPoolSize, 0xAB);
  auto p = Pool::OpenFromImage(garbage, "crash");
  EXPECT_EQ(p.status().code(), StatusCode::kDataLoss);

  std::vector<uint8_t> tiny(128, 0);
  auto q = Pool::OpenFromImage(tiny, "crash");
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace e2nvm::pmem

namespace e2nvm::core {
namespace {

// Crash consistency of the sharded store's per-shard journals: a power
// loss at ANY persist ordinal inside one shard's journal Append must
// (a) leave that shard's journal replaying to an exact prefix of its
// appended operations — the in-flight record either fully visible or
// fully invisible — and (b) leave every other shard's journal byte-intact,
// since shards journal into independent pools.

constexpr size_t kCrashShards = 2;
constexpr size_t kCrashSegments = 64;  // Per shard.
constexpr size_t kCrashBits = 128;

std::unique_ptr<ShardedStore> MakeJournaledStore() {
  workload::ProtoConfig pc;
  pc.dim = kCrashBits;
  pc.num_classes = 4;
  pc.samples = kCrashSegments + 16;
  pc.noise = 0.03;
  pc.seed = 41;
  auto ds = workload::MakeProtoDataset(pc);

  ShardedStoreConfig cfg;
  cfg.num_shards = kCrashShards;
  cfg.shard.num_segments = kCrashSegments;
  cfg.shard.segment_bits = kCrashBits;
  cfg.shard.model.k = 4;
  cfg.shard.model.pretrain_epochs = 2;
  cfg.shard.model.finetune_rounds = 1;
  cfg.journal = true;
  cfg.journal_capacity = 128;
  auto store_or = ShardedStore::Create(cfg);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

BitVector ValueFor(uint64_t key) {
  BitVector v(kCrashBits);
  for (size_t i = 0; i < kCrashBits; ++i) {
    v.Set(i, ((key * 0x9E3779B97F4A7C15ull) >> (i % 64)) & 1);
  }
  return v;
}

TEST(ShardedCrashRecovery, MidPutCrashOnOneShardLeavesOthersIntact) {
  auto store = MakeJournaledStore();

  // Collect keys owned by each shard.
  std::vector<std::vector<uint64_t>> keys(kCrashShards);
  for (uint64_t key = 0; keys[0].size() < 40 || keys[1].size() < 8;
       ++key) {
    keys[store->ShardOf(key)].push_back(key);
  }

  // Committed baseline on both shards.
  const size_t kBaseline1 = 8;
  for (size_t i = 0; i < kBaseline1; ++i) {
    ASSERT_TRUE(store->Put(keys[1][i], ValueFor(keys[1][i])).ok());
  }
  const size_t kBaseline0 = 4;
  for (size_t i = 0; i < kBaseline0; ++i) {
    ASSERT_TRUE(store->Put(keys[0][i], ValueFor(keys[0][i])).ok());
  }

  // Count the persist ordinals inside one shard-0 journal Append.
  pmem::CrashPoint cp;
  store->journal(0)->pool().SetCrashPoint(&cp);
  cp.ArmAt(1'000'000);
  size_t next0 = kBaseline0;
  ASSERT_TRUE(
      store->Put(keys[0][next0], ValueFor(keys[0][next0])).ok());
  ++next0;
  const uint64_t body = cp.persists_seen();
  ASSERT_GE(body, 4u);  // Begin, slot, undo snapshot, count, commit.

  for (uint64_t k = 0; k < body; ++k) {
    // Fire the crash at the k-th persist of a fresh key's Append. The
    // live store keeps running (the CrashPoint only captures an image),
    // so one store serves every ordinal.
    cp.ArmAt(k);
    const uint64_t key = keys[0][next0];
    ASSERT_TRUE(store->Put(key, ValueFor(key)).ok()) << "k=" << k;
    ++next0;
    ASSERT_TRUE(cp.fired()) << "k=" << k;

    // (a) The crashed shard's journal replays to an exact prefix: every
    // append before this Put, plus at most the in-flight record.
    auto replay_or = ShardJournal::ReplayImage(cp.image());
    ASSERT_TRUE(replay_or.ok())
        << "k=" << k << ": " << replay_or.status().ToString();
    const auto& replayed = *replay_or;
    const size_t before = next0 - 1;  // Appends committed before this Put.
    ASSERT_TRUE(replayed.size() == before ||
                replayed.size() == before + 1)
        << "k=" << k << " replayed " << replayed.size()
        << " records, expected " << before << " or " << before + 1;
    for (size_t i = 0; i < replayed.size(); ++i) {
      EXPECT_EQ(replayed[i].op, ShardJournal::Op::kPut) << "k=" << k;
      EXPECT_EQ(replayed[i].key, keys[0][i]) << "k=" << k;
      EXPECT_EQ(replayed[i].value, ValueFor(keys[0][i])) << "k=" << k;
    }

    // (b) The other shard's journal is untouched by the crash.
    auto other_or =
        ShardJournal::ReplayImage(store->journal(1)->SnapshotImage());
    ASSERT_TRUE(other_or.ok()) << "k=" << k;
    ASSERT_EQ(other_or->size(), kBaseline1) << "k=" << k;
    for (size_t i = 0; i < kBaseline1; ++i) {
      EXPECT_EQ((*other_or)[i].key, keys[1][i]) << "k=" << k;
      EXPECT_EQ((*other_or)[i].value, ValueFor(keys[1][i])) << "k=" << k;
    }
  }
  store->journal(0)->pool().SetCrashPoint(nullptr);

  // The live store itself was never disturbed by the image captures.
  for (size_t i = 0; i < next0; ++i) {
    auto got = store->Get(keys[0][i]);
    ASSERT_TRUE(got.ok()) << "key " << keys[0][i];
    EXPECT_EQ(*got, ValueFor(keys[0][i]));
  }
  for (size_t i = 0; i < kBaseline1; ++i) {
    auto got = store->Get(keys[1][i]);
    ASSERT_TRUE(got.ok()) << "key " << keys[1][i];
    EXPECT_EQ(*got, ValueFor(keys[1][i]));
  }
}

TEST(ShardedCrashRecovery, RefusedPutReplaysAPrefixAtEveryPersist) {
  // A PUT the shard refuses (its address pool is empty) is journaled,
  // then rewound out of the journal. A power loss at any persist ordinal
  // in between replays the committed history, plus at most the refused
  // record (a crash after the append commits but before the rewind
  // does); after the call the live journal holds the history alone.
  auto store = MakeJournaledStore();
  std::vector<uint64_t> keys;
  for (uint64_t key = 0; keys.size() < kCrashSegments + 1; ++key) {
    if (store->ShardOf(key) == 0) keys.push_back(key);
  }
  for (size_t i = 0; i < kCrashSegments; ++i) {
    ASSERT_TRUE(store->Put(keys[i], ValueFor(keys[i])).ok()) << i;
  }
  const uint64_t refused = keys[kCrashSegments];
  const size_t before = store->journal(0)->count();

  // Count the persist ordinals of one refused PUT: its append and its
  // rewind, one transaction each.
  pmem::CrashPoint cp;
  store->journal(0)->pool().SetCrashPoint(&cp);
  cp.ArmAt(1'000'000);
  ASSERT_EQ(store->Put(refused, ValueFor(refused)).code(),
            StatusCode::kResourceExhausted);
  const uint64_t body = cp.persists_seen();
  ASSERT_GE(body, 8u);  // Two transactions of Begin, undo, count, commit.
  ASSERT_EQ(store->journal(0)->count(), before);

  for (uint64_t k = 0; k < body; ++k) {
    cp.ArmAt(k);
    ASSERT_EQ(store->Put(refused, ValueFor(refused)).code(),
              StatusCode::kResourceExhausted)
        << "k=" << k;
    ASSERT_TRUE(cp.fired()) << "k=" << k;
    ASSERT_EQ(store->journal(0)->count(), before) << "k=" << k;

    auto replay_or = ShardJournal::ReplayImage(cp.image());
    ASSERT_TRUE(replay_or.ok())
        << "k=" << k << ": " << replay_or.status().ToString();
    const auto& replayed = *replay_or;
    ASSERT_TRUE(replayed.size() == before || replayed.size() == before + 1)
        << "k=" << k << " replayed " << replayed.size() << " records";
    for (size_t i = 0; i < replayed.size(); ++i) {
      const uint64_t want = i < before ? keys[i] : refused;
      EXPECT_EQ(replayed[i].key, want) << "k=" << k;
      EXPECT_EQ(replayed[i].value, ValueFor(want)) << "k=" << k;
    }
  }
  store->journal(0)->pool().SetCrashPoint(nullptr);
}

}  // namespace
}  // namespace e2nvm::core
