#include "core/batch.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/value_placer.h"
#include "nvm/controller.h"
#include "nvm/device.h"
#include "schemes/schemes.h"

namespace e2nvm::core {
namespace {

constexpr size_t kSegBits = 512;
constexpr size_t kSegments = 64;

struct Rig {
  Rig()
      : device(nvm::DeviceConfig{.num_segments = kSegments,
                                 .segment_bits = kSegBits}),
        ctrl(&device, &dcw, kSegments, 0),
        placer(&ctrl, 0, kSegments) {}
  schemes::Dcw dcw;
  nvm::NvmDevice device;
  nvm::MemoryController ctrl;
  index::ArbitraryPlacer placer;
};

BitVector SmallValue(uint64_t key, size_t bits = 64) {
  Rng rng(key * 7 + 1);
  BitVector v(bits);
  v.Randomize(rng);
  return v;
}

TEST(BatchWriterTest, RejectsOversizedAndEmpty) {
  Rig rig;
  BatchWriter bw(&rig.placer, kSegBits);
  EXPECT_FALSE(bw.Put(1, BitVector(kSegBits + 1)).ok());
  EXPECT_FALSE(bw.Put(1, BitVector()).ok());
}

TEST(BatchWriterTest, StagedReadBeforeFlush) {
  Rig rig;
  BatchWriter bw(&rig.placer, kSegBits);
  ASSERT_TRUE(bw.Put(1, SmallValue(1)).ok());
  ASSERT_TRUE(bw.Put(2, SmallValue(2)).ok());
  EXPECT_EQ(bw.staged_pairs(), 2u);
  EXPECT_EQ(bw.batches_placed(), 0u);
  EXPECT_EQ(rig.device.stats().writes, 0u);  // Nothing hit NVM yet.
  EXPECT_EQ(bw.Get(1).value(), SmallValue(1));
  EXPECT_EQ(bw.Get(2).value(), SmallValue(2));
}

TEST(BatchWriterTest, AutoFlushGroupsSmallWritesIntoOneSegment) {
  Rig rig;
  BatchWriter bw(&rig.placer, kSegBits);
  // 8 x 64-bit values fill one 512-bit batch; the 9th triggers a flush.
  for (uint64_t k = 0; k < 9; ++k) {
    ASSERT_TRUE(bw.Put(k, SmallValue(k)).ok());
  }
  EXPECT_EQ(bw.batches_placed(), 1u);
  EXPECT_EQ(rig.device.stats().writes, 1u);  // One segment write for 8 pairs.
  for (uint64_t k = 0; k < 9; ++k) {
    EXPECT_EQ(bw.Get(k).value(), SmallValue(k)) << k;
  }
}

TEST(BatchWriterTest, ExplicitFlushAndReadBack) {
  Rig rig;
  BatchWriter bw(&rig.placer, kSegBits);
  ASSERT_TRUE(bw.Put(10, SmallValue(10, 100)).ok());
  ASSERT_TRUE(bw.Put(11, SmallValue(11, 200)).ok());
  ASSERT_TRUE(bw.Flush().ok());
  EXPECT_EQ(bw.staged_pairs(), 0u);
  EXPECT_EQ(bw.Get(10).value(), SmallValue(10, 100));
  EXPECT_EQ(bw.Get(11).value(), SmallValue(11, 200));
  EXPECT_FALSE(bw.Get(99).ok());
}

TEST(BatchWriterTest, UpdateSupersedesAcrossBatches) {
  Rig rig;
  BatchWriter bw(&rig.placer, kSegBits);
  ASSERT_TRUE(bw.Put(5, SmallValue(5)).ok());
  ASSERT_TRUE(bw.Flush().ok());
  ASSERT_TRUE(bw.Put(5, SmallValue(500)).ok());
  EXPECT_EQ(bw.Get(5).value(), SmallValue(500));
  ASSERT_TRUE(bw.Flush().ok());
  EXPECT_EQ(bw.Get(5).value(), SmallValue(500));
}

TEST(BatchWriterTest, SegmentReclaimedWhenAllPairsDie) {
  Rig rig;
  BatchWriter bw(&rig.placer, kSegBits);
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(bw.Put(k, SmallValue(k)).ok());
  }
  ASSERT_TRUE(bw.Flush().ok());
  size_t free_before = rig.placer.FreeCount();
  for (uint64_t k = 0; k < 7; ++k) {
    ASSERT_TRUE(bw.Delete(k).ok());
  }
  EXPECT_EQ(bw.segments_reclaimed(), 0u);  // One pair still alive.
  ASSERT_TRUE(bw.Delete(7).ok());
  EXPECT_EQ(bw.segments_reclaimed(), 1u);
  EXPECT_EQ(rig.placer.FreeCount(), free_before + 1);
  EXPECT_FALSE(bw.Delete(7).ok());
}

TEST(BatchWriterTest, DeleteFromStaging) {
  Rig rig;
  BatchWriter bw(&rig.placer, kSegBits);
  ASSERT_TRUE(bw.Put(1, SmallValue(1)).ok());
  ASSERT_TRUE(bw.Delete(1).ok());
  EXPECT_FALSE(bw.Get(1).ok());
  EXPECT_EQ(bw.size(), 0u);
}

TEST(BatchWriterTest, ChurnConsistency) {
  Rig rig;
  BatchWriter bw(&rig.placer, kSegBits);
  std::map<uint64_t, uint64_t> ref;  // key -> value seed
  Rng rng(77);
  for (int op = 0; op < 1500; ++op) {
    uint64_t key = rng.NextBounded(60);
    double p = rng.NextDouble();
    if (p < 0.6) {
      uint64_t seed = rng.NextU64() % 100000;
      ASSERT_TRUE(bw.Put(key, SmallValue(seed)).ok()) << op;
      ref[key] = seed;
    } else if (p < 0.8) {
      Status s = bw.Delete(key);
      EXPECT_EQ(s.ok(), ref.erase(key) > 0) << op;
    } else {
      auto v = bw.Get(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_FALSE(v.ok()) << op;
      } else {
        ASSERT_TRUE(v.ok()) << op;
        EXPECT_EQ(*v, SmallValue(it->second)) << op;
      }
    }
  }
  // Batching efficiency: far fewer NVM writes than puts.
  EXPECT_LT(rig.device.stats().writes, 1500u / 4);
}

TEST(BatchWriterTest, VariableWidthsPackTightly) {
  Rig rig;
  BatchWriter bw(&rig.placer, kSegBits);
  ASSERT_TRUE(bw.Put(1, SmallValue(1, 100)).ok());
  ASSERT_TRUE(bw.Put(2, SmallValue(2, 300)).ok());
  ASSERT_TRUE(bw.Put(3, SmallValue(3, 111)).ok());  // 511/512 used.
  EXPECT_EQ(bw.batches_placed(), 0u);
  ASSERT_TRUE(bw.Put(4, SmallValue(4, 2)).ok());  // Forces flush.
  EXPECT_EQ(bw.batches_placed(), 1u);
  for (auto [k, bits] :
       std::vector<std::pair<uint64_t, size_t>>{{1, 100}, {2, 300},
                                                 {3, 111}, {4, 2}}) {
    EXPECT_EQ(bw.Get(k).value(), SmallValue(k, bits)) << k;
  }
}

}  // namespace
}  // namespace e2nvm::core
