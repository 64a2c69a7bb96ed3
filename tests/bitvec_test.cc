#include "common/bitvec.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace e2nvm {
namespace {

TEST(BitVectorTest, DefaultEmpty) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.Popcount(), 0u);
}

TEST(BitVectorTest, SetGetRoundTrip) {
  BitVector v(130);  // Crosses word boundaries.
  v.Set(0, true);
  v.Set(63, true);
  v.Set(64, true);
  v.Set(129, true);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(63));
  EXPECT_TRUE(v.Get(64));
  EXPECT_TRUE(v.Get(129));
  EXPECT_FALSE(v.Get(1));
  EXPECT_FALSE(v.Get(128));
  EXPECT_EQ(v.Popcount(), 4u);
  v.Set(63, false);
  EXPECT_FALSE(v.Get(63));
  EXPECT_EQ(v.Popcount(), 3u);
}

TEST(BitVectorTest, FromStringMatchesPaperNotation) {
  // Paper Table 1 row 0: [0, 0, 1, 1, 1, 1, 0, 1].
  BitVector v = BitVector::FromString("00111101");
  EXPECT_EQ(v.size(), 8u);
  EXPECT_FALSE(v.Get(0));
  EXPECT_TRUE(v.Get(2));
  EXPECT_TRUE(v.Get(7));
  EXPECT_EQ(v.ToString(), "00111101");
}

TEST(BitVectorTest, FromBytesLittleEndianPerByte) {
  uint8_t bytes[2] = {0x01, 0x80};
  BitVector v = BitVector::FromBytes(bytes, 2);
  EXPECT_EQ(v.size(), 16u);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(15));
  EXPECT_EQ(v.Popcount(), 2u);
}

TEST(BitVectorTest, FromFloatsThreshold) {
  BitVector v = BitVector::FromFloats({0.1f, 0.9f, 0.5f, 0.49f});
  EXPECT_EQ(v.ToString(), "0110");
}

TEST(BitVectorTest, HammingDistanceBasics) {
  BitVector a = BitVector::FromString("0000");
  BitVector b = BitVector::FromString("1111");
  EXPECT_EQ(a.HammingDistance(b), 4u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
  EXPECT_EQ(b.HammingDistance(a), 4u);
}

TEST(BitVectorTest, HammingDistanceSymmetricProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    BitVector a(257), b(257);
    a.Randomize(rng);
    b.Randomize(rng);
    EXPECT_EQ(a.HammingDistance(b), b.HammingDistance(a));
    // Triangle inequality through a third point.
    BitVector c(257);
    c.Randomize(rng);
    EXPECT_LE(a.HammingDistance(b),
              a.HammingDistance(c) + c.HammingDistance(b));
  }
}

TEST(BitVectorTest, InvertedFlipsEverything) {
  BitVector v = BitVector::FromString("0101");
  EXPECT_EQ(v.Inverted().ToString(), "1010");
  BitVector big(100);
  big.Set(50, true);
  EXPECT_EQ(big.Inverted().Popcount(), 99u);
  // Inverting twice restores, and tail bits stay masked.
  EXPECT_EQ(big.Inverted().Inverted(), big);
}

TEST(BitVectorTest, RotationPreservesPopcount) {
  Rng rng(3);
  BitVector v(77);
  v.Randomize(rng);
  size_t pop = v.Popcount();
  for (size_t k : {size_t{0}, size_t{1}, size_t{13}, size_t{76}, size_t{77}}) {
    EXPECT_EQ(v.RotatedLeft(k).Popcount(), pop) << "k=" << k;
  }
  EXPECT_EQ(v.RotatedLeft(77), v);  // Full rotation is identity.
  EXPECT_EQ(v.RotatedLeft(13).RotatedLeft(77 - 13), v);
}

TEST(BitVectorTest, SliceAndOverlay) {
  BitVector v = BitVector::FromString("00111101");
  EXPECT_EQ(v.Slice(2, 4).ToString(), "1111");
  EXPECT_EQ(v.Slice(0, 8), v);
  BitVector w(8);
  w.Overlay(2, BitVector::FromString("1111"));
  EXPECT_EQ(w.ToString(), "00111100");
}

/// Bits of `v`'s storage above size() — must stay zero, because
/// Popcount and operator== read whole words.
uint64_t TailGarbage(const BitVector& v) {
  if (v.size() % 64 == 0 || v.words().empty()) return 0;
  return v.words().back() & ~((uint64_t{1} << (v.size() % 64)) - 1);
}

TEST(BitVectorTest, SliceAndOverlayMatchBitByBitReference) {
  // Every start position of every size 1..200 (word-aligned or not),
  // with lengths that end inside, at and just past a word boundary,
  // plus "to the end"; the word-level shifts must agree with a
  // Get/Set loop bit for bit and leave no stray bit above size().
  Rng rng(0x51ce);
  for (size_t size = 1; size <= 200; ++size) {
    BitVector src(size);
    src.Randomize(rng);
    for (size_t start = 0; start <= size; ++start) {
      for (size_t len : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                         size_t{65}, size - start}) {
        if (start + len > size) continue;
        BitVector want_slice(len);
        for (size_t i = 0; i < len; ++i) {
          want_slice.Set(i, src.Get(start + i));
        }
        const BitVector got_slice = src.Slice(start, len);
        ASSERT_EQ(got_slice, want_slice)
            << "slice size=" << size << " start=" << start
            << " len=" << len;
        ASSERT_EQ(TailGarbage(got_slice), 0u)
            << "slice size=" << size << " start=" << start
            << " len=" << len;

        BitVector patch(len);
        patch.Randomize(rng);
        BitVector want = src;
        for (size_t i = 0; i < len; ++i) want.Set(start + i, patch.Get(i));
        BitVector got = src;
        got.Overlay(start, patch);
        ASSERT_EQ(got, want) << "overlay size=" << size
                             << " start=" << start << " len=" << len;
        ASSERT_EQ(TailGarbage(got), 0u)
            << "overlay size=" << size << " start=" << start
            << " len=" << len;
      }
    }
  }
}

TEST(BitVectorTest, ConcatOrdersBits) {
  BitVector a = BitVector::FromString("01");
  BitVector b = BitVector::FromString("10");
  EXPECT_EQ(a.Concat(b).ToString(), "0110");
  EXPECT_EQ(a.Concat(BitVector()).ToString(), "01");
}

TEST(BitVectorTest, DirtyLinesCountsChangedLinesOnly) {
  // 4 lines of 8 bits each.
  BitVector old_bits(32);
  BitVector new_bits(32);
  new_bits.Set(0, true);   // Line 0 dirty.
  new_bits.Set(17, true);  // Line 2 dirty.
  EXPECT_EQ(new_bits.DirtyLines(old_bits, 8), 2u);
  EXPECT_EQ(old_bits.DirtyLines(old_bits, 8), 0u);
  // Everything different -> all 4 lines.
  EXPECT_EQ(old_bits.Inverted().DirtyLines(old_bits, 8), 4u);
}

TEST(BitVectorTest, DirtyLinesPartialTailLine) {
  BitVector a(10), b(10);
  b.Set(9, true);  // Lives in the second (partial) 8-bit line.
  EXPECT_EQ(a.DirtyLines(b, 8), 1u);
}

TEST(BitVectorTest, ToFloatsRoundTrip) {
  BitVector v = BitVector::FromString("0110");
  auto f = v.ToFloats();
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(BitVector::FromFloats(f), v);
}

TEST(BitVectorTest, FlipRandomBitsExactCount) {
  Rng rng(11);
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{100},
                   size_t{200}}) {
    BitVector v(200);
    BitVector orig = v;
    v.FlipRandomBits(n, rng);
    EXPECT_EQ(v.HammingDistance(orig), n) << "n=" << n;
  }
}

TEST(BitVectorTest, RandomizeIsDeterministicPerSeed) {
  Rng r1(99), r2(99);
  BitVector a(321), b(321);
  a.Randomize(r1);
  b.Randomize(r2);
  EXPECT_EQ(a, b);
}

TEST(BitVectorTest, EqualityRespectsSizeAndBits) {
  BitVector a(8), b(9);
  EXPECT_FALSE(a == b);
  BitVector c(8);
  EXPECT_TRUE(a == c);
  c.Set(3, true);
  EXPECT_FALSE(a == c);
}

class BitVectorSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitVectorSizeTest, PopcountMatchesManualCount) {
  size_t n = GetParam();
  Rng rng(n * 31 + 1);
  BitVector v(n);
  v.Randomize(rng);
  size_t manual = 0;
  for (size_t i = 0; i < n; ++i) manual += v.Get(i) ? 1 : 0;
  EXPECT_EQ(v.Popcount(), manual);
}

TEST_P(BitVectorSizeTest, SliceConcatIdentity) {
  size_t n = GetParam();
  if (n < 2) return;
  Rng rng(n);
  BitVector v(n);
  v.Randomize(rng);
  size_t cut = n / 2;
  EXPECT_EQ(v.Slice(0, cut).Concat(v.Slice(cut, n - cut)), v);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorSizeTest,
                         ::testing::Values(1, 7, 8, 63, 64, 65, 127, 128,
                                           1000, 2048));

}  // namespace
}  // namespace e2nvm
