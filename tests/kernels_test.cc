#include "common/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/matrix.h"

namespace e2nvm {
namespace {

/// Every tier compiled in AND supported by this CPU, scalar first.
/// On a machine without AVX2 this collapses to {scalar} and the
/// cross-tier comparisons become trivially true — the test still runs.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> out = {SimdLevel::kScalar};
  if (OpsFor(SimdLevel::kAvx2) != nullptr) out.push_back(SimdLevel::kAvx2);
  if (OpsFor(SimdLevel::kAvx512) != nullptr) {
    out.push_back(SimdLevel::kAvx512);
  }
  return out;
}

/// memcmp requires non-null pointers even for zero bytes (UBSan traps
/// the empty-vector data() == nullptr case), so the size-0 corners of
/// the sweeps go through this guard.
bool BytesEqual(const void* a, const void* b, size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

/// Fills `words` with random bits, then masks everything above
/// `num_bits` the way BitVector does, so tail-word garbage can't hide
/// (or fake) a kernel that reads past the last valid bit.
void RandomBits(Rng& rng, size_t num_bits, std::vector<uint64_t>* words) {
  words->assign((num_bits + 63) / 64, 0);
  for (auto& w : *words) w = rng.NextU64();
  if (num_bits % 64 != 0 && !words->empty()) {
    words->back() &= (uint64_t{1} << (num_bits % 64)) - 1;
  }
}

TEST(KernelsTest, DispatchReportsAConsistentTier) {
  const SimdLevel active = ActiveSimdLevel();
  EXPECT_NE(OpsFor(active), nullptr);
  EXPECT_EQ(OpsFor(active), &Ops());
  const std::string name = SimdLevelName(active);
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512");
  // The scalar reference must always be reachable for A/B testing.
  ASSERT_NE(OpsFor(SimdLevel::kScalar), nullptr);
}

// --- Bit kernels: exhaustive over sizes 0..257 so every tail-mask
// shape (empty, sub-word, word-aligned, 4-word SIMD block + remainder)
// is covered, with several random fills per size. ---

TEST(KernelsTest, BitKernelsMatchScalarForAllSizes) {
  const KernelOps& ref = *OpsFor(SimdLevel::kScalar);
  Rng rng(0xfeedbeef);
  std::vector<uint64_t> a, b;
  for (SimdLevel level : AvailableLevels()) {
    const KernelOps& ops = *OpsFor(level);
    for (size_t bits = 0; bits <= 257; ++bits) {
      for (int trial = 0; trial < 4; ++trial) {
        RandomBits(rng, bits, &a);
        RandomBits(rng, bits, &b);
        const size_t n = a.size();
        ASSERT_EQ(ops.popcount_words(a.data(), n),
                  ref.popcount_words(a.data(), n))
            << SimdLevelName(level) << " popcount, bits=" << bits;
        ASSERT_EQ(ops.hamming_words(a.data(), b.data(), n),
                  ref.hamming_words(a.data(), b.data(), n))
            << SimdLevelName(level) << " hamming, bits=" << bits;
        DiffCounts dv = ops.diff_words(a.data(), b.data(), n);
        DiffCounts ds = ref.diff_words(a.data(), b.data(), n);
        ASSERT_EQ(dv.sets, ds.sets)
            << SimdLevelName(level) << " diff sets, bits=" << bits;
        ASSERT_EQ(dv.resets, ds.resets)
            << SimdLevelName(level) << " diff resets, bits=" << bits;
      }
    }
  }
}

TEST(KernelsTest, DiffCountsDecomposeHamming) {
  Rng rng(77);
  std::vector<uint64_t> a, b;
  for (size_t bits : {0u, 1u, 63u, 64u, 65u, 200u, 257u}) {
    RandomBits(rng, bits, &a);
    RandomBits(rng, bits, &b);
    for (SimdLevel level : AvailableLevels()) {
      const KernelOps& ops = *OpsFor(level);
      DiffCounts d = ops.diff_words(a.data(), b.data(), a.size());
      EXPECT_EQ(d.sets + d.resets,
                ops.hamming_words(a.data(), b.data(), a.size()));
      // sets = bits that are 0 in old and 1 in new.
      size_t sets = 0;
      for (size_t w = 0; w < a.size(); ++w) {
        sets += static_cast<size_t>(__builtin_popcountll(~a[w] & b[w]));
      }
      EXPECT_EQ(d.sets, sets);
    }
  }
}

TEST(KernelsTest, BitsToFloatsMatchScalarForAllSizes) {
  const KernelOps& ref = *OpsFor(SimdLevel::kScalar);
  Rng rng(123);
  std::vector<uint64_t> words;
  for (SimdLevel level : AvailableLevels()) {
    const KernelOps& ops = *OpsFor(level);
    for (size_t bits = 0; bits <= 257; ++bits) {
      RandomBits(rng, bits, &words);
      // Canary-padded outputs: a kernel writing past `bits` floats
      // breaks the trailing sentinel comparison.
      std::vector<float> got(bits + 8, -7.0f), want(bits + 8, -7.0f);
      ops.bits_to_floats(words.data(), bits, got.data());
      ref.bits_to_floats(words.data(), bits, want.data());
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << SimdLevelName(level) << " bits=" << bits;
      for (size_t i = 0; i < bits; ++i) {
        ASSERT_TRUE(want[i] == 0.0f || want[i] == 1.0f);
      }
    }
  }
}

// --- Float kernels: bitwise equality against scalar, unaligned start
// offsets included so the vector loops can't assume 32-byte alignment. ---

TEST(KernelsTest, AddMatchesScalarBitwise) {
  const KernelOps& ref = *OpsFor(SimdLevel::kScalar);
  Rng rng(9);
  for (SimdLevel level : AvailableLevels()) {
    const KernelOps& ops = *OpsFor(level);
    for (size_t n = 0; n <= 257; ++n) {
      for (size_t offset : {0u, 1u, 3u}) {  // Unaligned starts.
        std::vector<float> base(offset + n), src(offset + n);
        for (auto& v : base) v = rng.NextFloat() * 4.0f - 2.0f;
        for (auto& v : src) v = rng.NextFloat() * 4.0f - 2.0f;

        std::vector<float> got = base, want = base;
        ops.add_f32(got.data() + offset, src.data() + offset, n);
        ref.add_f32(want.data() + offset, src.data() + offset, n);
        ASSERT_TRUE(BytesEqual(got.data(), want.data(),
                               got.size() * sizeof(float)))
            << SimdLevelName(level) << " add n=" << n << " off=" << offset;
      }
    }
  }
}

TEST(KernelsTest, AdamMatchesScalarBitwise) {
  // Every length 0..67 covers the 8- and 16-wide bodies and every tail.
  // The gradients mix exact zeros (both signs), denormals, ordinary
  // values and values near the float range, whose squares overflow to
  // inf in v; the moments start from a prior step's state. t = 1 has
  // the largest bias corrections, t = 10000 corrections of exactly 1.
  const KernelOps& ref = *OpsFor(SimdLevel::kScalar);
  const float denorm = std::numeric_limits<float>::denorm_min();
  Rng rng(77);
  for (int t : {1, 10000}) {
    const AdamStep step{
        .beta1 = 0.9f,
        .beta2 = 0.999f,
        .lr = 1e-3f,
        .eps = 1e-8f,
        .correction1 = 1.0f - std::pow(0.9f, static_cast<float>(t)),
        .correction2 = 1.0f - std::pow(0.999f, static_cast<float>(t))};
    for (size_t n = 0; n <= 67; ++n) {
      std::vector<float> w(n), m(n), v(n), g(n);
      for (size_t i = 0; i < n; ++i) {
        w[i] = rng.NextFloat() * 2.0f - 1.0f;
        m[i] = (rng.NextFloat() - 0.5f) * 1e-2f;
        v[i] = rng.NextFloat() * 1e-4f;
        switch (i % 6) {
          case 0: g[i] = 0.0f; break;
          case 1: g[i] = -0.0f; break;
          case 2: g[i] = denorm * static_cast<float>(1 + i); break;
          case 3: g[i] = rng.NextFloat() * 2.0f - 1.0f; break;
          case 4: g[i] = (rng.NextFloat() * 0.5f + 0.5f) * 3e38f; break;
          default: g[i] = -(rng.NextFloat() + 0.5f) * 1e20f; break;
        }
      }
      std::vector<float> want_w = w, want_m = m, want_v = v;
      ref.adam_f32(want_w.data(), want_m.data(), want_v.data(), g.data(), n,
                   step);
      for (SimdLevel level : AvailableLevels()) {
        std::vector<float> got_w = w, got_m = m, got_v = v;
        OpsFor(level)->adam_f32(got_w.data(), got_m.data(), got_v.data(),
                                g.data(), n, step);
        const size_t bytes = n * sizeof(float);
        ASSERT_TRUE(BytesEqual(got_w.data(), want_w.data(), bytes))
            << SimdLevelName(level) << " w n=" << n << " t=" << t;
        ASSERT_TRUE(BytesEqual(got_m.data(), want_m.data(), bytes))
            << SimdLevelName(level) << " m n=" << n << " t=" << t;
        ASSERT_TRUE(BytesEqual(got_v.data(), want_v.data(), bytes))
            << SimdLevelName(level) << " v n=" << n << " t=" << t;
      }
    }
  }
}

/// Input patterns for the gemv sweep. Every ±0.0f input's B row is
/// filled with ±inf, so a tier that multiplied a zero it should have
/// skipped would turn its outputs into NaN (0 * inf) and fail the
/// comparison: the skip itself, not just the sum, is under test.
///
/// kBinary inputs are 0, -0 and 1.0 only, like a featurized encode, so
/// every 64-input block takes the SIMD tiers' no-multiply path. The B
/// rows under its 1.0 inputs hold -0.0f, denormal and ±inf columns,
/// which must come through that path exactly as through a multiply by
/// 1.0f. GemvCase::odd puts one other nonzero into a kBinary input; its
/// block must then go back to the multiply path.
enum class GemvInput { kMixed, kAllZero, kNoZero, kWithNaN, kBinary };

struct GemvCase {
  GemvInput kind;
  /// kBinary only: a[odd_at] = odd when odd != 0.0f.
  float odd = 0.0f;
  size_t odd_at = 0;
};

/// One B entry under a 1.0f input of a kBinary pattern: -0.0f, a signed
/// denormal, an infinity of the column's fixed sign, or a plain value.
float UnitRowEntry(size_t j, Rng& rng) {
  switch (j % 5) {
    case 0:
      return -0.0f;
    case 1: {
      const float d = std::numeric_limits<float>::denorm_min() *
                      static_cast<float>(1 + rng.NextBounded(1u << 20));
      return rng.NextU64() % 2 == 0 ? d : -d;
    }
    case 2:
      return (j / 5) % 2 == 0 ? INFINITY : -INFINITY;
    default:
      return rng.NextFloat() * 2.0f - 1.0f;
  }
}

void FillGemvInputs(const GemvCase& gc, size_t k, size_t n, Rng& rng,
                    std::vector<float>* a, std::vector<float>* b) {
  a->assign(k, 0.0f);
  b->assign(k * n, 0.0f);
  for (size_t p = 0; p < k; ++p) {
    const float r = rng.NextFloat();
    float& v = (*a)[p];
    switch (gc.kind) {
      case GemvInput::kMixed:
      case GemvInput::kWithNaN:
        v = r < 0.2f   ? 0.0f
            : r < 0.3f ? -0.0f
            : r < 0.6f ? 1.0f
                       : r * 2.0f - 1.0f;
        break;
      case GemvInput::kAllZero:
        v = p % 2 == 0 ? 0.0f : -0.0f;
        break;
      case GemvInput::kNoZero:
        v = r < 0.5f ? 1.0f : r + 0.25f;
        break;
      case GemvInput::kBinary:
        v = r < 0.35f ? 0.0f : r < 0.5f ? -0.0f : 1.0f;
        break;
    }
    for (size_t j = 0; j < n; ++j) {
      float& w = (*b)[p * n + j];
      if (v == 0.0f) {
        w = j % 2 == 0 ? INFINITY : -INFINITY;
      } else if (gc.kind == GemvInput::kBinary) {
        w = UnitRowEntry(j, rng);
      } else {
        w = rng.NextFloat() * 2.0f - 1.0f;
      }
    }
  }
  size_t odd_at = gc.odd_at;
  float odd = gc.odd;
  if (gc.kind == GemvInput::kWithNaN && k > 0) {
    odd_at = rng.NextU64() % k;
    odd = NAN;
  }
  if (odd != 0.0f) {  // NaN included.
    (*a)[odd_at] = odd;
    for (size_t j = 0; j < n; ++j) (*b)[odd_at * n + j] = rng.NextFloat();
  }
}

/// Where a kBinary pattern's one other nonzero goes: the first 64-input
/// block, a middle block, the last full block and the partial k-tail
/// block (the ones that exist for this k).
std::vector<size_t> OddPositions(size_t k) {
  if (k == 0) return {};
  const size_t blocks = (k + 63) / 64;
  std::vector<size_t> at = {std::min<size_t>(5, k - 1),
                            std::min(k - 1, blocks / 2 * 64 + 33)};
  if (k >= 64) at.push_back(k / 64 * 64 - 1);
  if (k % 64 != 0) at.push_back(k - 1);
  return at;
}

std::vector<GemvCase> GemvCases(size_t k) {
  std::vector<GemvCase> cases = {
      {GemvInput::kMixed},   {GemvInput::kAllZero}, {GemvInput::kNoZero},
      {GemvInput::kWithNaN}, {GemvInput::kBinary}};
  for (float odd : {-1.0f, 0.5f, std::nextafter(1.0f, 2.0f),
                    std::numeric_limits<float>::quiet_NaN()}) {
    for (size_t at : OddPositions(k)) {
      cases.push_back({GemvInput::kBinary, odd, at});
    }
  }
  return cases;
}

/// A copy of `src` placed `offset` floats past a 64-byte boundary, in a
/// block that ends right after its last float, so a read past it trips
/// ASan.
class OffsetFloats {
 public:
  OffsetFloats(const std::vector<float>& src, size_t offset) {
    void* block = nullptr;
    const size_t floats = std::max<size_t>(offset + src.size(), 1);
    if (posix_memalign(&block, 64, floats * sizeof(float)) != 0) {
      throw std::bad_alloc();
    }
    block_.reset(static_cast<float*>(block));
    data_ = block_.get() + offset;
    std::copy(src.begin(), src.end(), data_);
  }
  const float* data() const { return data_; }

 private:
  struct Free {
    void operator()(float* p) const { std::free(p); }
  };
  std::unique_ptr<float, Free> block_;
  float* data_;
};

TEST(KernelsTest, GemvMatchesScalarBitwise) {
  const KernelOps& ref = *OpsFor(SimdLevel::kScalar);
  Rng rng(41);
  // n sweeps every tail shape of the 64/16 (avx512) and 32/8 (avx2)
  // column tiling; k sweeps every tail of the tiers' 64-input mask
  // blocks and of the 16-wide (avx512) and 8-wide (avx2) compares inside
  // them, up to a 2048-bit encode; k == 0 must yield all zeros. `a` and
  // `b` start 0..15 floats past a cache line and `a` is exactly k floats
  // long, so a block that reads past a[k - 1] trips ASan.
  for (size_t n : {0u,  1u,  7u,  8u,  9u,  15u,  16u,  17u, 31u,
                   32u, 33u, 63u, 64u, 65u, 127u, 128u, 257u}) {
    for (size_t k : {0u,  1u,  3u,   7u,   8u,   9u,   15u,  16u,
                     17u, 31u, 33u,  63u,  64u,  65u,  127u, 128u,
                     129u, 130u, 2048u}) {
      for (const GemvCase& gc : GemvCases(k)) {
        std::vector<float> a, b;
        FillGemvInputs(gc, k, n, rng, &a, &b);
        std::vector<float> want(n + 4, -3.0f);
        ref.gemv_f32(a.data(), b.data(), k, n, want.data());
        for (size_t offset = 0; offset < 16; ++offset) {
          const OffsetFloats a_at(a, offset), b_at(b, offset);
          for (SimdLevel level : AvailableLevels()) {
            if (level == SimdLevel::kScalar) continue;
            std::vector<float> got(n + 4, -3.0f);
            OpsFor(level)->gemv_f32(a_at.data(), b_at.data(), k, n,
                                    got.data());
            // A NaN input must be visited, not dropped as "unordered":
            // the outputs the scalar tier makes NaN must be NaN (payloads
            // may differ); every other float, the slack included, bit for
            // bit.
            for (size_t j = 0; j < got.size(); ++j) {
              const bool same =
                  std::isnan(want[j])
                      ? std::isnan(got[j])
                      : BytesEqual(&got[j], &want[j], sizeof(float));
              ASSERT_TRUE(same)
                  << SimdLevelName(level) << " gemv k=" << k << " n=" << n
                  << " kind=" << static_cast<int>(gc.kind)
                  << " odd=" << gc.odd << "@" << gc.odd_at
                  << " offset=" << offset << " j=" << j
                  << " got=" << got[j] << " want=" << want[j];
            }
          }
        }
      }
    }
  }
}

// --- CRC32C: known-answer vectors, chaining, and cross-tier equality
// (the hardware-accelerated tiers must produce standard Castagnoli
// checksums, byte-for-byte interchangeable with the scalar table). ---

TEST(KernelsTest, Crc32cKnownAnswers) {
  // The canonical CRC32C check value (RFC 3720 appendix / zlib tests).
  const char* check = "123456789";
  EXPECT_EQ(Crc32c(check, 9), 0xE3069283u);
  // Empty input with seed 0 is 0.
  EXPECT_EQ(Crc32c(check, 0), 0u);
  // 32 zero bytes (iSCSI test vector).
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ffs(32, 0xFF);
  EXPECT_EQ(Crc32c(ffs.data(), ffs.size()), 0x62A8AB43u);
}

TEST(KernelsTest, Crc32cChainsAcrossSplits) {
  Rng rng(0xc5c5c5c5);
  std::vector<uint64_t> words;
  RandomBits(rng, 257 * 64, &words);
  const auto* bytes = reinterpret_cast<const uint8_t*>(words.data());
  const size_t n = words.size() * 8;
  for (SimdLevel level : AvailableLevels()) {
    const KernelOps& ops = *OpsFor(level);
    const uint32_t whole = ops.crc32c(0, bytes, n);
    for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{555}, n - 1, n}) {
      uint32_t part = ops.crc32c(0, bytes, split);
      part = ops.crc32c(part, bytes + split, n - split);
      ASSERT_EQ(part, whole)
          << SimdLevelName(level) << " split=" << split;
    }
  }
}

TEST(KernelsTest, Crc32cMatchesScalarForAllSizes) {
  const KernelOps& ref = *OpsFor(SimdLevel::kScalar);
  Rng rng(0x32c32c);
  std::vector<uint64_t> words;
  for (SimdLevel level : AvailableLevels()) {
    const KernelOps& ops = *OpsFor(level);
    for (size_t bytes = 0; bytes <= 257; ++bytes) {
      RandomBits(rng, (bytes + 8) * 8, &words);
      const auto* p = reinterpret_cast<const uint8_t*>(words.data());
      const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
      ASSERT_EQ(ops.crc32c(seed, p, bytes), ref.crc32c(seed, p, bytes))
          << SimdLevelName(level) << " bytes=" << bytes;
    }
  }
}

TEST(KernelsTest, Crc32cDetectsSingleBitDamage) {
  Rng rng(0xdead);
  std::vector<uint64_t> words;
  RandomBits(rng, 64 * 64, &words);
  auto* bytes = reinterpret_cast<uint8_t*>(words.data());
  const size_t n = words.size() * 8;
  const uint32_t clean = Crc32c(bytes, n);
  for (int trial = 0; trial < 64; ++trial) {
    const size_t bit = static_cast<size_t>(rng.NextBounded(n * 8));
    bytes[bit / 8] ^= uint8_t{1} << (bit % 8);
    EXPECT_NE(Crc32c(bytes, n), clean) << "flipped bit " << bit;
    bytes[bit / 8] ^= uint8_t{1} << (bit % 8);
  }
  EXPECT_EQ(Crc32c(bytes, n), clean);
}

// --- BitVector front-end: the primitives agree with a per-bit oracle. ---

TEST(KernelsTest, BitVectorDiffStatsMatchesPerBitWalk) {
  Rng rng(55);
  for (size_t bits : {0u, 1u, 64u, 100u, 257u, 2048u}) {
    BitVector oldv(bits), newv(bits);
    oldv.Randomize(rng);
    newv.Randomize(rng);
    DiffCounts d = BitVector::DiffStats(oldv, newv);
    size_t sets = 0, resets = 0;
    for (size_t i = 0; i < bits; ++i) {
      if (oldv.Get(i) != newv.Get(i)) {
        ++(newv.Get(i) ? sets : resets);
      }
    }
    EXPECT_EQ(d.sets, sets) << "bits=" << bits;
    EXPECT_EQ(d.resets, resets) << "bits=" << bits;
    EXPECT_EQ(d.sets + d.resets, oldv.HammingDistance(newv));
  }
}

// --- GEMM: the dispatched j-vectorized paths, and the transposed
// products that run on them, must be bit-identical to a naive triple
// loop, serial and pooled alike. ---

ml::Matrix RandomMatrix(size_t r, size_t c, Rng& rng) {
  ml::Matrix m(r, c);
  for (auto& v : m.data()) v = rng.NextFloat() * 2.0f - 1.0f;
  return m;
}

/// c[i][j] = sum_p a[i][p] * b[p][j], scalar ascending-p — the
/// accumulation order every MatMul path promises to preserve.
ml::Matrix NaiveMatMul(const ml::Matrix& a, const ml::Matrix& b) {
  ml::Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float s = 0.0f;
      for (size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

ml::Matrix NaiveMatMulTransB(const ml::Matrix& a, const ml::Matrix& b) {
  ml::Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      float s = 0.0f;
      for (size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(j, p);
      c(i, j) = s;
    }
  }
  return c;
}

/// c[i][j] = sum_p a[p][i] * b[p][j], scalar ascending-p, no zero skip.
ml::Matrix NaiveMatMulTransA(const ml::Matrix& a, const ml::Matrix& b) {
  ml::Matrix c(a.cols(), b.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float s = 0.0f;
      for (size_t p = 0; p < a.rows(); ++p) s += a(p, i) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

bool SameBits(const ml::Matrix& got, const ml::Matrix& want) {
  return got.rows() == want.rows() && got.cols() == want.cols() &&
         BytesEqual(got.data().data(), want.data().data(),
                    want.size() * sizeof(float));
}

/// Writes the zero patterns the skip must handle into the vectors that
/// become gemv's A rows: `at(r, p)` names element p of vector r.
/// Vector 0 alternates 0.0f, -0.0f and 1.0f (a featurized row with
/// signed zeros), vector 1 is all 0.0f and, when there is one, vector 2
/// is all -0.0f.
template <typename At>
void PlantZeros(size_t vectors, size_t len, At at) {
  for (size_t p = 0; p < len; ++p) {
    const float pattern[3] = {0.0f, -0.0f, 1.0f};
    at(0, p) = pattern[p % 3];
    if (vectors > 1) at(1, p) = 0.0f;
    if (vectors > 2) at(2, p) = -0.0f;
  }
}

TEST(KernelsTest, GemmBitIdenticalToNaiveSerialAndPooled) {
  Rng rng(2024);
  // Odd sizes force the GEMV column tiles' tails. The last shape is big
  // enough (2.2M multiply-adds) that a pool actually splits its rows.
  // B is finite, the condition under which A B^T's zero skip is exact.
  const std::vector<std::tuple<size_t, size_t, size_t>> shapes = {
      {1, 1, 1},    {3, 5, 7},    {8, 16, 24},
      {13, 33, 65}, {17, 128, 9}, {67, 257, 129}};
  for (auto [m, k, n] : shapes) {
    // MatMul and MatMulTransB: A is m x k, its rows are gemv's A rows.
    ml::Matrix a = RandomMatrix(m, k, rng);
    PlantZeros(m, k, [&](size_t r, size_t p) -> float& { return a(r, p); });
    ml::Matrix b = RandomMatrix(k, n, rng);
    ml::Matrix bt = RandomMatrix(n, k, rng);
    // MatMulTransA: A is k x m and its columns are gemv's A rows; one
    // all-zero row zeroes a whole step p as well.
    ml::Matrix ta = RandomMatrix(k, m, rng);
    PlantZeros(m, k,
               [&](size_t r, size_t p) -> float& { return ta(p, r); });
    for (size_t i = 0; i < m; ++i) ta(k / 2, i) = 0.0f;

    const ml::Matrix want = NaiveMatMul(a, b);
    const ml::Matrix want_tb = NaiveMatMulTransB(a, bt);
    const ml::Matrix want_ta = NaiveMatMulTransA(ta, b);
    const std::string shape = std::to_string(m) + "x" + std::to_string(k) +
                              "x" + std::to_string(n);

    ml::Matrix got;
    ml::MatMulInto(a, b, &got);
    EXPECT_TRUE(SameBits(got, want)) << "MatMulInto " << shape;
    EXPECT_TRUE(SameBits(ml::MatMulTransB(a, bt), want_tb))
        << "MatMulTransB " << shape;
    EXPECT_TRUE(SameBits(ml::MatMulTransA(ta, b), want_ta))
        << "MatMulTransA " << shape;

    {
      ThreadPool pool(3);
      ml::SetComputePool(&pool);
      const ml::Matrix pooled = ml::MatMul(a, b);
      const ml::Matrix pooled_tb = ml::MatMulTransB(a, bt);
      const ml::Matrix pooled_ta = ml::MatMulTransA(ta, b);
      ml::SetComputePool(nullptr);
      EXPECT_TRUE(SameBits(pooled, want)) << "pooled MatMul " << shape;
      EXPECT_TRUE(SameBits(pooled_tb, want_tb))
          << "pooled MatMulTransB " << shape;
      EXPECT_TRUE(SameBits(pooled_ta, want_ta))
          << "pooled MatMulTransA " << shape;
    }
  }
}

TEST(KernelsTest, TransposeIntoMatchesElementwise) {
  Rng rng(5);
  ml::Matrix at;
  for (auto [r, c] : {std::pair<size_t, size_t>{37, 19}, {1, 70}, {64, 2},
                      {0, 3}}) {
    const ml::Matrix a = RandomMatrix(r, c, rng);
    ml::TransposeInto(a, &at);
    ASSERT_EQ(at.rows(), c);
    ASSERT_EQ(at.cols(), r);
    for (size_t i = 0; i < r; ++i) {
      for (size_t j = 0; j < c; ++j) ASSERT_EQ(at(j, i), a(i, j));
    }
  }
}

}  // namespace
}  // namespace e2nvm
