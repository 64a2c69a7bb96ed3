#include "core/address_pool.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bitvec.h"
#include "common/rng.h"

namespace e2nvm::core {
namespace {

TEST(AddressPoolTest, InsertAcquireFifo) {
  DynamicAddressPool pool(3);
  pool.Insert(1, 100);
  pool.Insert(1, 101);
  EXPECT_EQ(pool.FreeCount(1), 2u);
  EXPECT_EQ(pool.Acquire(1).value(), 100u);  // First available (paper).
  EXPECT_EQ(pool.Acquire(1).value(), 101u);
  EXPECT_FALSE(pool.Acquire(1).has_value());  // Empty everywhere now.
}

TEST(AddressPoolTest, FallbackToLargestCluster) {
  DynamicAddressPool pool(3);
  pool.Insert(0, 1);
  pool.Insert(2, 10);
  pool.Insert(2, 11);
  pool.Insert(2, 12);
  // Cluster 1 empty: falls back to the largest (cluster 2).
  auto a = pool.Acquire(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 10u);
}

TEST(AddressPoolTest, ExhaustionReturnsNullopt) {
  DynamicAddressPool pool(2);
  EXPECT_FALSE(pool.Acquire(0).has_value());
  pool.Insert(0, 5);
  EXPECT_TRUE(pool.Acquire(1).has_value());  // Fallback drains it.
  EXPECT_FALSE(pool.Acquire(0).has_value());
}

TEST(AddressPoolTest, AcquireBestPicksMinHamming) {
  DynamicAddressPool pool(1);
  pool.Insert(0, 0);
  pool.Insert(0, 1);
  pool.Insert(0, 2);
  std::vector<BitVector> contents = {
      BitVector::FromString("11110000"),
      BitVector::FromString("00000001"),
      BitVector::FromString("11111111"),
  };
  BitVector target = BitVector::FromString("00000011");
  auto best = pool.AcquireBest(0, [&](uint64_t addr) {
    return contents[addr].HammingDistance(target);
  });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);  // Hamming 1 vs 5 and 6.
  EXPECT_EQ(pool.TotalFree(), 2u);
}

TEST(AddressPoolTest, MinClusterFreeAndThresholds) {
  DynamicAddressPool pool(3);
  pool.Insert(0, 1);
  pool.Insert(0, 2);
  pool.Insert(1, 3);
  EXPECT_EQ(pool.MinClusterFree(), 0u);  // Cluster 2 empty.
  pool.Insert(2, 4);
  EXPECT_EQ(pool.MinClusterFree(), 1u);
}

TEST(AddressPoolTest, AllFreeSnapshot) {
  DynamicAddressPool pool(2);
  pool.Insert(0, 7);
  pool.Insert(1, 8);
  pool.Insert(1, 9);
  auto all = pool.AllFree();
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<uint64_t>{7, 8, 9}));
}

TEST(AddressPoolTest, ClearEmpties) {
  DynamicAddressPool pool(2);
  pool.Insert(0, 1);
  pool.Clear();
  EXPECT_EQ(pool.TotalFree(), 0u);
  EXPECT_FALSE(pool.Acquire(0).has_value());
}

TEST(AddressPoolTest, OutOfRangeClusterIdsClampInsteadOfUb) {
  DynamicAddressPool pool(2);
  pool.Insert(99, 7);  // Clamped to the last cluster.
  EXPECT_EQ(pool.FreeCount(1), 1u);
  EXPECT_EQ(pool.FreeCount(99), 0u);  // Out-of-range query: 0, counted.
  EXPECT_GE(pool.clamped_ids(), 2u);
  EXPECT_EQ(pool.Acquire(99).value(), 7u);  // Clamped acquire still works.
  EXPECT_EQ(pool.TotalFree(), 0u);
}

TEST(AddressPoolTest, ZeroClusterPoolIsInert) {
  DynamicAddressPool pool(0);
  pool.Insert(0, 1);  // Dropped: nowhere to put it — but no crash.
  EXPECT_EQ(pool.TotalFree(), 0u);
  EXPECT_FALSE(pool.Acquire(0).has_value());
  EXPECT_FALSE(pool.AcquireAny().has_value());
  EXPECT_FALSE(
      pool.AcquireBest(0, [](uint64_t) { return size_t{0}; }).has_value());
}

TEST(AddressPoolTest, AcquireAnyPopsFromFullestCluster) {
  DynamicAddressPool pool(3);
  pool.Insert(0, 1);
  pool.Insert(2, 10);
  pool.Insert(2, 11);
  EXPECT_EQ(pool.AcquireAny().value(), 10u);
  EXPECT_EQ(pool.TotalFree(), 2u);
  EXPECT_EQ(pool.AcquireAny().value(), 1u);  // Now both size 1; first wins.
  EXPECT_EQ(pool.AcquireAny().value(), 11u);
  EXPECT_FALSE(pool.AcquireAny().has_value());
}

TEST(AddressPoolTest, FootprintGrowsWithAddresses) {
  DynamicAddressPool pool(4);
  size_t base = pool.MemoryFootprintBytes();
  for (uint64_t i = 0; i < 1000; ++i) pool.Insert(i % 4, i);
  EXPECT_GE(pool.MemoryFootprintBytes(), base + 1000 * sizeof(uint64_t));
}

}  // namespace
}  // namespace e2nvm::core
