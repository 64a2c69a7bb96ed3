#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>

#include "common/rng.h"
#include "index/bptree.h"
#include "index/fptree.h"
#include "index/novelsm.h"
#include "index/path_hashing.h"
#include "index/placed_index.h"
#include "index/wisckey.h"
#include "schemes/schemes.h"

namespace e2nvm::index {
namespace {

constexpr size_t kBits = 128;
constexpr size_t kSegments = 2048;

struct IndexRig {
  IndexRig() {
    nvm::DeviceConfig dc;
    dc.num_segments = kSegments;
    dc.segment_bits = kBits;
    device = std::make_unique<nvm::NvmDevice>(dc);
    ctrl = std::make_unique<nvm::MemoryController>(device.get(), &dcw,
                                                   kSegments, 0);
  }
  schemes::Dcw dcw;
  std::unique_ptr<nvm::NvmDevice> device;
  std::unique_ptr<nvm::MemoryController> ctrl;
};

using IndexFactory =
    std::function<std::unique_ptr<NvmKvIndex>(IndexRig&)>;

struct NamedFactory {
  const char* label;
  IndexFactory make;
};

std::unique_ptr<NvmKvIndex> MakeBp(IndexRig& rig) {
  return std::make_unique<BpTreeKv>(
      rig.ctrl.get(), BpTreeKv::Config{.leaf_capacity = 8,
                                       .value_bits = kBits});
}
std::unique_ptr<NvmKvIndex> MakePath(IndexRig& rig) {
  return std::make_unique<PathHashingKv>(
      rig.ctrl.get(),
      PathHashingKv::Config{.root_cells = 512, .levels = 3,
                            .value_bits = kBits});
}
std::unique_ptr<NvmKvIndex> MakeFp(IndexRig& rig) {
  return std::make_unique<FpTreeKv>(
      rig.ctrl.get(),
      FpTreeKv::Config{.leaf_capacity = 8, .value_bits = kBits});
}
std::unique_ptr<NvmKvIndex> MakeWisc(IndexRig& rig) {
  return std::make_unique<WisckeyKv>(
      rig.ctrl.get(),
      WisckeyKv::Config{.log_slots = kSegments, .gc_region = 64,
                        .value_bits = kBits});
}
std::unique_ptr<NvmKvIndex> MakeLsm(IndexRig& rig) {
  return std::make_unique<NoveLsmKv>(
      rig.ctrl.get(),
      NoveLsmKv::Config{.memtable_entries = 16, .max_runs = 3,
                        .value_bits = kBits});
}

class AllIndexesTest : public ::testing::TestWithParam<NamedFactory> {};

BitVector ValueFor(uint64_t key, uint32_t version = 0) {
  Rng rng(key * 1000003 + version);
  BitVector v(kBits);
  v.Randomize(rng);
  return v;
}

TEST_P(AllIndexesTest, PutGetRoundTrip) {
  IndexRig rig;
  auto idx = GetParam().make(rig);
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(idx->Put(k, ValueFor(k)).ok()) << idx->name() << " " << k;
  }
  EXPECT_EQ(idx->size(), 100u);
  for (uint64_t k = 0; k < 100; ++k) {
    auto v = idx->Get(k);
    ASSERT_TRUE(v.ok()) << idx->name() << " key " << k;
    EXPECT_EQ(*v, ValueFor(k)) << idx->name() << " key " << k;
  }
  EXPECT_FALSE(idx->Get(5000).ok());
}

TEST_P(AllIndexesTest, UpdateOverwrites) {
  IndexRig rig;
  auto idx = GetParam().make(rig);
  ASSERT_TRUE(idx->Put(42, ValueFor(42, 0)).ok());
  ASSERT_TRUE(idx->Put(42, ValueFor(42, 1)).ok());
  auto v = idx->Get(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, ValueFor(42, 1));
}

TEST_P(AllIndexesTest, DeleteRemoves) {
  IndexRig rig;
  auto idx = GetParam().make(rig);
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(idx->Put(k, ValueFor(k)).ok());
  }
  ASSERT_TRUE(idx->Delete(10).ok());
  EXPECT_FALSE(idx->Get(10).ok());
  EXPECT_TRUE(idx->Get(11).ok());
  EXPECT_FALSE(idx->Delete(1000).ok());
}

TEST_P(AllIndexesTest, RandomChurnConsistentWithReference) {
  IndexRig rig;
  auto idx = GetParam().make(rig);
  std::map<uint64_t, uint32_t> ref;  // key -> version
  Rng rng(13);
  for (int op = 0; op < 800; ++op) {
    uint64_t key = rng.NextBounded(120);
    double p = rng.NextDouble();
    if (p < 0.6) {
      uint32_t ver = ref.count(key) ? ref[key] + 1 : 0;
      ASSERT_TRUE(idx->Put(key, ValueFor(key, ver)).ok())
          << idx->name() << " op " << op;
      ref[key] = ver;
    } else if (p < 0.8) {
      Status s = idx->Delete(key);
      EXPECT_EQ(s.ok(), ref.erase(key) > 0) << idx->name();
    } else {
      auto v = idx->Get(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_FALSE(v.ok()) << idx->name() << " key " << key;
      } else {
        ASSERT_TRUE(v.ok()) << idx->name() << " key " << key;
        EXPECT_EQ(*v, ValueFor(key, it->second)) << idx->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Structures, AllIndexesTest,
    ::testing::Values(NamedFactory{"bptree", MakeBp},
                      NamedFactory{"path", MakePath},
                      NamedFactory{"fptree", MakeFp},
                      NamedFactory{"wisckey", MakeWisc},
                      NamedFactory{"novelsm", MakeLsm}),
    [](const ::testing::TestParamInfo<NamedFactory>& info) {
      return info.param.label;
    });

TEST(BpTreeSpecificTest, SortedInsertShiftsValues) {
  IndexRig rig;
  BpTreeKv bp(rig.ctrl.get(), {.leaf_capacity = 8, .value_bits = kBits});
  // Fill a leaf with keys 0,2,4,6; inserting key 1 shifts three values.
  for (uint64_t k : {0u, 2u, 4u, 6u}) {
    ASSERT_TRUE(bp.Put(k, ValueFor(k)).ok());
  }
  uint64_t writes_before = rig.device->stats().writes;
  ASSERT_TRUE(bp.Put(1, ValueFor(1)).ok());
  // 3 shifts + 1 insert = 4 segment writes.
  EXPECT_EQ(rig.device->stats().writes - writes_before, 4u);
}

TEST(BpTreeSpecificTest, ScanOrdered) {
  IndexRig rig;
  BpTreeKv bp(rig.ctrl.get(), {.leaf_capacity = 4, .value_bits = kBits});
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(bp.Put(k * 3, ValueFor(k * 3)).ok());
  }
  auto scan = bp.Scan(10, 5);
  ASSERT_EQ(scan.size(), 5u);
  EXPECT_EQ(scan[0].first, 12u);
  for (size_t i = 1; i < scan.size(); ++i) {
    EXPECT_GT(scan[i].first, scan[i - 1].first);
  }
  EXPECT_GT(bp.num_leaves(), 1u);  // Splits happened.
}

TEST(FpTreeSpecificTest, InsertWritesSingleSegment) {
  IndexRig rig;
  FpTreeKv fp(rig.ctrl.get(), {.leaf_capacity = 8, .value_bits = kBits});
  for (uint64_t k : {0u, 2u, 4u, 6u}) {
    ASSERT_TRUE(fp.Put(k, ValueFor(k)).ok());
  }
  uint64_t writes_before = rig.device->stats().writes;
  ASSERT_TRUE(fp.Put(1, ValueFor(1)).ok());
  EXPECT_EQ(rig.device->stats().writes - writes_before, 1u);
}

TEST(FpTreeVsBpTreeTest, UnsortedLeavesFlipFewerBits) {
  // The Fig 12 story at unit scale: sorted B+Tree leaves move values,
  // FPTree's unsorted leaves don't.
  IndexRig bp_rig, fp_rig;
  BpTreeKv bp(bp_rig.ctrl.get(), {.leaf_capacity = 16,
                                  .value_bits = kBits});
  FpTreeKv fp(fp_rig.ctrl.get(), {.leaf_capacity = 16,
                                  .value_bits = kBits});
  Rng rng(3);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 400; ++i) keys.push_back(rng.NextU64() % 10000);
  for (uint64_t k : keys) {
    ASSERT_TRUE(bp.Put(k, ValueFor(k)).ok());
    ASSERT_TRUE(fp.Put(k, ValueFor(k)).ok());
  }
  EXPECT_GT(bp_rig.device->stats().total_bits_flipped(),
            2 * fp_rig.device->stats().total_bits_flipped());
}

TEST(PathHashingSpecificTest, CollisionsFallThroughPath) {
  IndexRig rig;
  PathHashingKv ph(rig.ctrl.get(),
                   {.root_cells = 4, .levels = 3, .value_bits = kBits});
  // 4 + 2 + 1 = 7 cells total; inserting 7 keys must succeed only while
  // paths are free, then report exhaustion.
  int inserted = 0;
  Status last = Status::Ok();
  for (uint64_t k = 0; k < 64 && last.ok(); ++k) {
    last = ph.Put(k, ValueFor(k));
    if (last.ok()) ++inserted;
  }
  EXPECT_GT(inserted, 3);
  EXPECT_LE(inserted, 7);
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST(WisckeySpecificTest, GcRelocatesLiveValues) {
  IndexRig rig;
  WisckeyKv wk(rig.ctrl.get(),
               {.log_slots = 64, .gc_region = 16, .value_bits = kBits});
  // Keep 8 live keys, update them repeatedly to churn the log.
  for (int round = 0; round < 30; ++round) {
    for (uint64_t k = 0; k < 8; ++k) {
      ASSERT_TRUE(wk.Put(k, ValueFor(k, round)).ok());
    }
  }
  EXPECT_GT(wk.gc_passes(), 0u);
  for (uint64_t k = 0; k < 8; ++k) {
    auto v = wk.Get(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, ValueFor(k, 29));
  }
}

TEST(NoveLsmSpecificTest, FlushAndCompactionHappen) {
  IndexRig rig;
  NoveLsmKv lsm(rig.ctrl.get(),
                {.memtable_entries = 8, .max_runs = 2,
                 .value_bits = kBits});
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(lsm.Put(k, ValueFor(k)).ok());
  }
  EXPECT_GT(lsm.flushes(), 0u);
  EXPECT_GT(lsm.compactions(), 0u);
  // All keys still readable after flush/compaction.
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(lsm.Get(k).ok()) << k;
  }
  // LSM write amplification: device writes exceed logical puts.
  EXPECT_GT(rig.device->stats().writes, 100u);
}

TEST(NoveLsmSpecificTest, TombstonesSurviveFlush) {
  IndexRig rig;
  NoveLsmKv lsm(rig.ctrl.get(),
                {.memtable_entries = 4, .max_runs = 8,
                 .value_bits = kBits});
  ASSERT_TRUE(lsm.Put(1, ValueFor(1)).ok());
  // Force the put into a run.
  for (uint64_t k = 10; k < 14; ++k) {
    ASSERT_TRUE(lsm.Put(k, ValueFor(k)).ok());
  }
  ASSERT_TRUE(lsm.Delete(1).ok());
  for (uint64_t k = 20; k < 28; ++k) {
    ASSERT_TRUE(lsm.Put(k, ValueFor(k)).ok());
  }
  EXPECT_FALSE(lsm.Get(1).ok());
}

TEST(PlacedIndexTest, DelegatesToPlacer) {
  IndexRig rig;
  ArbitraryPlacer placer(rig.ctrl.get(), 0, 256);
  PlacedKvIndex idx("B+Tree+E2", &placer, kBits);
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(idx.Put(k, ValueFor(k)).ok());
  }
  EXPECT_EQ(idx.size(), 50u);
  EXPECT_EQ(placer.FreeCount(), 256u - 50u);
  for (uint64_t k = 0; k < 50; ++k) {
    EXPECT_EQ(idx.Get(k).value(), ValueFor(k));
  }
  // Update: place new + release old keeps free count stable.
  ASSERT_TRUE(idx.Put(0, ValueFor(0, 1)).ok());
  EXPECT_EQ(placer.FreeCount(), 256u - 50u);
  ASSERT_TRUE(idx.Delete(0).ok());
  EXPECT_EQ(placer.FreeCount(), 256u - 49u);
  EXPECT_EQ(idx.name(), "B+Tree+E2");
}

TEST(PlacedIndexTest, RefusesAValueOfAnotherWidth) {
  IndexRig rig;
  ArbitraryPlacer placer(rig.ctrl.get(), 0, 256);
  PlacedKvIndex idx("B+Tree+E2", &placer, kBits);
  ASSERT_TRUE(idx.Put(1, ValueFor(1)).ok());
  // A narrower value is refused before it is placed, so the width Get
  // reads back stays the one every stored value has.
  const Status st = idx.Put(2, ValueFor(2).Slice(0, kBits / 2));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(placer.FreeCount(), 256u - 1u);
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.Get(1).value(), ValueFor(1));
  EXPECT_EQ(idx.Get(2).status().code(), StatusCode::kNotFound);
}

TEST(ArbitraryPlacerTest, FirstFreeOrder) {
  IndexRig rig;
  ArbitraryPlacer placer(rig.ctrl.get(), 10, 4);
  BitVector v(kBits);
  EXPECT_EQ(placer.Place(v).value(), 10u);
  EXPECT_EQ(placer.Place(v).value(), 11u);
  ASSERT_TRUE(placer.Release(10).ok());
  EXPECT_EQ(placer.Place(v).value(), 12u);  // FIFO: released goes last.
  EXPECT_EQ(placer.Place(v).value(), 13u);
  EXPECT_EQ(placer.Place(v).value(), 10u);
  EXPECT_EQ(placer.Place(v).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(MergeWriteTest, PartialWidthPreservesTail) {
  IndexRig rig;
  Rng rng(5);
  BitVector seed(kBits);
  seed.Randomize(rng);
  rig.ctrl->Seed(0, seed);
  BitVector narrow(32);
  narrow.Randomize(rng);
  MergeWrite(*rig.ctrl, 0, narrow);
  EXPECT_EQ(rig.ctrl->Peek(0).Slice(0, 32), narrow);
  EXPECT_EQ(rig.ctrl->Peek(0).Slice(32, kBits - 32),
            seed.Slice(32, kBits - 32));
}

}  // namespace
}  // namespace e2nvm::index
