#include "core/address_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"

namespace e2nvm::core {
namespace {

/// The scorer of a width-1 acquire, which must never run.
size_t NoScore(uint64_t) {
  ADD_FAILURE() << "a width-1 acquire scored an address";
  return 0;
}

/// The paper's first-free acquire.
std::optional<uint64_t> First(DynamicAddressPool& pool, size_t cluster) {
  auto got = pool.Acquire(cluster, 1, NoScore);
  if (!got.has_value()) return std::nullopt;
  return got->addr;
}

std::vector<uint64_t> ListOf(const DynamicAddressPool& pool, size_t cluster) {
  const FreeList& list = pool.free_list(cluster);
  std::vector<uint64_t> out;
  for (size_t i = 0; i < list.size(); ++i) out.push_back(list[i]);
  return out;
}

TEST(AddressPoolTest, InsertAcquireFifo) {
  DynamicAddressPool pool(3);
  pool.Insert(1, 100);
  pool.Insert(1, 101);
  EXPECT_EQ(pool.free_list(1).size(), 2u);
  EXPECT_EQ(First(pool, 1).value(), 100u);  // First available (paper).
  EXPECT_EQ(First(pool, 1).value(), 101u);
  EXPECT_FALSE(First(pool, 1).has_value());  // Empty everywhere now.
}

TEST(AddressPoolTest, WidthOneTakesTheHeadWithoutScoring) {
  DynamicAddressPool pool(1);
  for (uint64_t addr : {5, 6, 7}) pool.Insert(0, addr);
  size_t calls = 0;
  auto nearest_is_7 = [&](uint64_t addr) {
    ++calls;
    return addr == 7 ? size_t{0} : size_t{9};
  };
  auto got = pool.Acquire(0, 1, nearest_is_7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->addr, 5u);
  EXPECT_FALSE(got->fallback);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(ListOf(pool, 0), (std::vector<uint64_t>{6, 7}));
}

TEST(AddressPoolTest, WidthScansOnlyTheFirstWAddresses) {
  // Address i lies dist[i] from the value. Of the first four, 1 and 3
  // tie at the minimum and the earlier wins; 5, past the window, is
  // nearer still and stays.
  const std::vector<size_t> dist = {9, 4, 7, 4, 8, 0};
  DynamicAddressPool pool(1);
  for (uint64_t addr = 0; addr < dist.size(); ++addr) pool.Insert(0, addr);
  size_t calls = 0;
  auto score = [&](uint64_t addr) {
    ++calls;
    return dist[addr];
  };
  auto got = pool.Acquire(0, 4, score);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->addr, 1u);
  EXPECT_FALSE(got->fallback);
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(ListOf(pool, 0), (std::vector<uint64_t>{0, 2, 3, 4, 5}));
}

TEST(AddressPoolTest, WholeClusterPicksMinHamming) {
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
  auto best = pool.Acquire(0, kWholeCluster, [&](uint64_t addr) {
    return contents[addr].HammingDistance(target);
  });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->addr, 1u);  // Hamming 1 vs 5 and 6.
  EXPECT_FALSE(best->fallback);
  EXPECT_EQ(pool.TotalFree(), 2u);
  EXPECT_EQ(ListOf(pool, 0), (std::vector<uint64_t>{0, 2}));
}

TEST(AddressPoolTest, EraseKeepsFifoOrderAcrossTheRingWrap) {
  // Eight slots; three taken from the head and three appended wrap the
  // ring, then the nearest address sits past the wrap point.
  DynamicAddressPool pool(1);
  for (uint64_t addr = 0; addr < 8; ++addr) pool.Insert(0, addr);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(First(pool, 0).has_value());
  for (uint64_t addr = 8; addr < 11; ++addr) pool.Insert(0, addr);
  EXPECT_EQ(pool.free_list(0).capacity(), 8u);
  auto got = pool.Acquire(0, kWholeCluster, [](uint64_t addr) {
    return addr == 9 ? size_t{0} : size_t{1};
  });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->addr, 9u);
  EXPECT_EQ(ListOf(pool, 0), (std::vector<uint64_t>{3, 4, 5, 6, 7, 8, 10}));
}

TEST(AddressPoolTest, EmptyOrOutOfRangeClusterFallsBackAndSaysSo) {
  DynamicAddressPool pool(3);
  pool.Insert(0, 1);
  pool.Insert(2, 10);
  pool.Insert(2, 11);
  pool.Insert(2, 12);
  // Cluster 1 is empty: the largest (cluster 2) serves, at any width.
  auto a = pool.Acquire(1, 1, NoScore);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->addr, 10u);
  EXPECT_TRUE(a->fallback);
  auto b = pool.Acquire(1, kWholeCluster, [](uint64_t addr) {
    return addr == 12 ? size_t{0} : size_t{1};
  });
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->addr, 12u);
  EXPECT_TRUE(b->fallback);
  EXPECT_EQ(pool.clamped_ids(), 0u);
  // An out-of-range id clamps to the last cluster, counted once...
  auto c = pool.Acquire(99, 1, NoScore);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->addr, 11u);
  EXPECT_TRUE(c->fallback);
  EXPECT_EQ(pool.clamped_ids(), 1u);
  // ...and falls back to the largest when that one is empty too.
  auto d = pool.Acquire(99, 1, NoScore);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->addr, 1u);
  EXPECT_TRUE(d->fallback);
  EXPECT_EQ(pool.clamped_ids(), 2u);
  EXPECT_FALSE(pool.Acquire(1, 1, NoScore).has_value());
}

TEST(AddressPoolTest, ExhaustionReturnsNullopt) {
  DynamicAddressPool pool(2);
  EXPECT_FALSE(First(pool, 0).has_value());
  pool.Insert(0, 5);
  EXPECT_TRUE(First(pool, 1).has_value());  // Fallback drains it.
  EXPECT_FALSE(First(pool, 0).has_value());
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
  EXPECT_FALSE(First(pool, 0).has_value());
}

TEST(AddressPoolTest, OutOfRangeClusterIdsClampInsteadOfUb) {
  DynamicAddressPool pool(2);
  pool.Insert(99, 7);  // Clamped to the last cluster, counted.
  EXPECT_EQ(pool.free_list(1).size(), 1u);
  EXPECT_EQ(pool.clamped_ids(), 1u);
  EXPECT_EQ(First(pool, 99).value(), 7u);  // Clamped acquire still works.
  EXPECT_EQ(pool.clamped_ids(), 2u);
  EXPECT_EQ(pool.TotalFree(), 0u);
}

TEST(AddressPoolTest, ZeroClusterPoolIsInert) {
  DynamicAddressPool pool(0);
  pool.Insert(0, 1);  // Dropped: nowhere to put it — but no crash.
  EXPECT_EQ(pool.TotalFree(), 0u);
  EXPECT_EQ(pool.LargestCluster(), 0u);
  EXPECT_FALSE(First(pool, 0).has_value());
  EXPECT_FALSE(pool.Acquire(0, kWholeCluster, [](uint64_t) {
                     return size_t{0};
                   }).has_value());
}

TEST(AddressPoolTest, LargestClusterIsTheFullestFirstOnATie) {
  DynamicAddressPool pool(3);
  pool.Insert(0, 1);
  pool.Insert(2, 10);
  pool.Insert(2, 11);
  auto from_largest = [&] { return First(pool, pool.LargestCluster()); };
  EXPECT_EQ(pool.LargestCluster(), 2u);
  EXPECT_EQ(from_largest().value(), 10u);
  EXPECT_EQ(pool.TotalFree(), 2u);
  EXPECT_EQ(from_largest().value(), 1u);  // Now both size 1; first wins.
  EXPECT_EQ(from_largest().value(), 11u);
  EXPECT_FALSE(from_largest().has_value());
  EXPECT_EQ(pool.clamped_ids(), 0u);
}

TEST(AddressPoolTest, FootprintGrowsWithAddresses) {
  DynamicAddressPool pool(4);
  size_t base = pool.MemoryFootprintBytes();
  for (uint64_t i = 0; i < 1000; ++i) pool.Insert(i % 4, i);
  EXPECT_GE(pool.MemoryFootprintBytes(), base + 1000 * sizeof(uint64_t));
}

}  // namespace
}  // namespace e2nvm::core
