#include "common/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/exp_log_port.h"
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

/// One B entry under a 1.0f input: -0.0f, a signed denormal, an infinity
/// of the column's fixed sign, or a plain value, which must come through
/// the no-multiply path exactly as through a multiply by 1.0f. The m = 1
/// sweep puts it under a kBinary pattern's 1.0 inputs, the m >= 2 sweep
/// in the B rows p with p % 5 == 4.
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

/// Where a kBinaryOdd row's or a GemvCase's other nonzero goes: the
/// first 64-input block, a middle block, the last full block and the
/// partial k-tail block (the ones that exist for this k).
std::vector<size_t> OddPositions(size_t k) {
  if (k == 0) return {};
  const size_t blocks = (k + 63) / 64;
  std::vector<size_t> at = {std::min<size_t>(5, k - 1),
                            std::min(k - 1, blocks / 2 * 64 + 33)};
  if (k >= 64) at.push_back(k / 64 * 64 - 1);
  if (k % 64 != 0) at.push_back(k - 1);
  return at;
}

/// Input patterns for the m = 1 gemm sweep (the write path's encode).
/// Every ±0.0f input's B row is filled with ±inf, so a tier that
/// multiplied a zero it should have skipped would turn its outputs into
/// NaN (0 * inf) and fail the comparison: the skip itself, not just the
/// sum, is under test.
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

/// Rows of A for the m >= 2 gemm sweep. kBinary rows are 0, -0 and 1.0 only,
/// like a featurized encode, so each 64-input block takes the SIMD
/// tiers' no-multiply path; kBinaryOdd adds one other nonzero (-1, 0.5,
/// the float after 1, or NaN) in the first, a middle, the last full or
/// the partial tail block, which must send that block back to the
/// multiply path. kRelu rows are half zeros (a ReLU output), kDense rows
/// have no zero at all (a gradient), kSpecial rows mix ±0, NaN, ±inf,
/// 1.0 and plain values, and kZero rows are ±0 throughout.
enum class RowKind { kBinary, kBinaryOdd, kRelu, kDense, kSpecial, kZero };
constexpr size_t kRowKinds = 6;

/// B rows p with p % 5 == 2 hold ±inf in every third column: a row that
/// multiplied a zero there it should have skipped (in particular beside
/// a partner row whose input there is nonzero) turns those outputs into
/// NaN (0 * inf) and fails the comparison, so the skip itself is under
/// test, not just the sum. Even rows other than kDense and kSpecial
/// hold ±0 at those p.
bool PoisonStep(size_t p) { return p % 5 == 2; }

/// Row `row` of A (k floats at `a`) of kind `kind`; `variant` picks a
/// kBinaryOdd row's value and position.
void FillGemmRow(RowKind kind, size_t row, size_t variant, size_t k,
                 Rng& rng, float* a) {
  for (size_t p = 0; p < k; ++p) {
    const float r = rng.NextFloat();
    float v = 0.0f;
    switch (kind) {
      case RowKind::kBinary:
      case RowKind::kBinaryOdd:
        v = r < 0.35f ? 0.0f : r < 0.5f ? -0.0f : 1.0f;
        break;
      case RowKind::kRelu:
        v = r < 0.5f ? 0.0f : r;
        break;
      case RowKind::kDense:
        v = r < 0.3f ? 1.0f : r * 2.0f - 1.0f;
        if (v == 0.0f) v = 0.5f;
        break;
      case RowKind::kSpecial:
        v = r < 0.15f   ? -0.0f
            : r < 0.3f  ? 0.0f
            : r < 0.35f ? std::numeric_limits<float>::quiet_NaN()
            : r < 0.4f  ? INFINITY
            : r < 0.45f ? -INFINITY
            : r < 0.6f  ? 1.0f
                        : r * 2.0f - 1.0f;
        break;
      case RowKind::kZero:
        v = p % 2 == 0 ? 0.0f : -0.0f;
        break;
    }
    if (row % 2 == 0 && PoisonStep(p) && kind != RowKind::kDense &&
        kind != RowKind::kSpecial) {
      v = p % 2 == 0 ? 0.0f : -0.0f;
    }
    a[p] = v;
  }
  if (kind == RowKind::kBinaryOdd && k > 0) {
    const float odds[] = {-1.0f, 0.5f, std::nextafter(1.0f, 2.0f),
                          std::numeric_limits<float>::quiet_NaN()};
    const std::vector<size_t> at = OddPositions(k);
    a[at[(row / 2 + variant) % at.size()]] = odds[(row + variant) % 4];
  }
}

/// A (m x k) for the sweep: row pair q (rows 2q and 2q + 1) of variant v
/// has kinds (q + v) % 6 and (q + v) / 6 % 6, so the 36 variants of a
/// 2- or 3-row A, and the 32 pairs of a 64-row one, cover every pair of
/// kinds.
std::vector<float> GemmA(size_t m, size_t k, size_t variant, Rng& rng) {
  std::vector<float> a(m * k);
  for (size_t i = 0; i < m; ++i) {
    const size_t q = i / 2 + variant;
    const size_t kind = i % 2 == 0 ? q % kRowKinds : q / kRowKinds % kRowKinds;
    FillGemmRow(static_cast<RowKind>(kind), i, variant, k, rng,
                a.data() + i * k);
  }
  return a;
}

std::vector<float> GemmB(size_t k, size_t n, Rng& rng) {
  std::vector<float> b(k * n);
  for (size_t p = 0; p < k; ++p) {
    for (size_t j = 0; j < n; ++j) {
      float& w = b[p * n + j];
      if (PoisonStep(p) && j % 3 == 0) {
        w = (j / 3) % 2 == 0 ? INFINITY : -INFINITY;
      } else if (p % 5 == 4) {
        w = UnitRowEntry(j, rng);
      } else {
        w = rng.NextFloat() * 2.0f - 1.0f;
      }
    }
  }
  return b;
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
  float* data() { return data_; }

 private:
  struct Free {
    void operator()(float* p) const { std::free(p); }
  };
  std::unique_ptr<float, Free> block_;
  float* data_;
};

/// Every SIMD tier's gemm_f32 on A (m x k) and B (k x n), each copied
/// to every one of `offsets` floats past a cache line, against the
/// scalar tier's on the originals. A NaN input must be visited, not
/// dropped as "unordered": the outputs the scalar tier makes NaN must be
/// NaN (payloads may differ); every other float bit for bit, and the
/// four floats after C must stay untouched.
void ExpectGemmMatchesScalar(const std::vector<float>& a,
                             const std::vector<float>& b, size_t m, size_t k,
                             size_t n, const std::vector<size_t>& offsets,
                             const std::string& what) {
  std::vector<float> want(m * n + 4, -3.0f);
  OpsFor(SimdLevel::kScalar)
      ->gemm_f32(a.data(), b.data(), m, k, n, want.data());
  for (size_t offset : offsets) {
    const OffsetFloats a_at(a, offset), b_at(b, offset);
    for (SimdLevel level : AvailableLevels()) {
      if (level == SimdLevel::kScalar) continue;
      std::vector<float> got(m * n + 4, -3.0f);
      OpsFor(level)->gemm_f32(a_at.data(), b_at.data(), m, k, n,
                              got.data());
      for (size_t j = 0; j < got.size(); ++j) {
        const bool same = std::isnan(want[j])
                              ? std::isnan(got[j])
                              : BytesEqual(&got[j], &want[j], sizeof(float));
        ASSERT_TRUE(same) << SimdLevelName(level) << " gemm m=" << m
                          << " k=" << k << " n=" << n << " " << what
                          << " offset=" << offset
                          << " row=" << j / std::max<size_t>(n, 1)
                          << " col=" << j % std::max<size_t>(n, 1)
                          << " got=" << got[j] << " want=" << want[j];
      }
    }
  }
}

TEST(KernelsTest, GemmMatchesScalarBitwise) {
  Rng rng(41);
  // m = 1, the write path's encode. n sweeps every tail shape of the
  // 64/16 (avx512) and 32/16/8 (avx2) column tiling; k sweeps every tail
  // of the tiers' 64-input mask blocks and of the 16-wide (avx512) and
  // 8-wide (avx2) compares inside them, up to a 2048-bit encode; k == 0
  // must yield all zeros. Every ±0 input's B row is ±inf (GemvInput).
  // `a` and `b` start 0..15 floats past a cache line and `a` is exactly
  // k floats long, so a block that reads past a[k - 1] trips ASan.
  std::vector<size_t> every_offset(16);
  for (size_t i = 0; i < every_offset.size(); ++i) every_offset[i] = i;
  for (size_t n : {0u,  1u,  7u,  8u,  9u,  15u,  16u,  17u, 31u,
                   32u, 33u, 63u, 64u, 65u, 127u, 128u, 257u}) {
    for (size_t k : {0u,  1u,  3u,   7u,   8u,   9u,   15u,  16u,
                     17u, 31u, 33u,  63u,  64u,  65u,  127u, 128u,
                     129u, 130u, 2048u}) {
      for (const GemvCase& gc : GemvCases(k)) {
        std::vector<float> a, b;
        FillGemvInputs(gc, k, n, rng, &a, &b);
        ASSERT_NO_FATAL_FAILURE(ExpectGemmMatchesScalar(
            a, b, 1, k, n, every_offset,
            "kind=" + std::to_string(static_cast<int>(gc.kind)) +
                " odd=" + std::to_string(gc.odd) + "@" +
                std::to_string(gc.odd_at)));
      }
    }
  }
  // m >= 2: 2 is one row pair, 3 a pair and a lone row, 64 a training
  // batch; the rows pair up every two row kinds (GemmA). `a` is exactly
  // m * k floats long and starts 0, 1 or 15 floats past a cache line.
  std::vector<std::pair<size_t, size_t>> shapes;
  for (size_t k : {0u, 1u, 7u, 8u, 9u, 16u, 17u, 63u, 64u, 65u, 127u,
                   128u, 129u, 200u}) {
    for (size_t n : {0u,  1u,  7u,  8u,  9u,  15u, 16u,  17u, 31u,
                     32u, 33u, 63u, 64u, 65u, 127u, 128u, 129u}) {
      shapes.emplace_back(k, n);
    }
  }
  for (size_t n : {16u, 64u, 65u}) shapes.emplace_back(2048, n);
  for (size_t m : {2u, 3u, 64u}) {
    const size_t variants = m == 64 ? 1 : kRowKinds * kRowKinds;
    for (auto [k, n] : shapes) {
      for (size_t variant = 0; variant < variants; ++variant) {
        const std::vector<float> a = GemmA(m, k, variant, rng);
        const std::vector<float> b = GemmB(k, n, rng);
        ASSERT_NO_FATAL_FAILURE(
            ExpectGemmMatchesScalar(a, b, m, k, n, {0, 1, 15},
                                    "variant=" + std::to_string(variant)));
      }
    }
  }
}

// --- sigmoid_f32 and log_f32: every tier runs the expf/logf port and
// must return the scalar port's bits, NaN payloads included. ---

uint32_t FloatBits(float f) { return std::bit_cast<uint32_t>(f); }
float BitsFloat(uint32_t u) { return std::bit_cast<float>(u); }

/// The inputs the elementwise kernels are swept over: a strided pass
/// over all 2^32 bit patterns; every float within 2^16 ulps of ±0 (the
/// smallest subnormals); a strided pass over the subnormals of both
/// signs; 4096 ulps either side of the port's branch points (expf's
/// -88 and ±88.72 bounds, its -103.97 underflow and -103.28 subnormal
/// bounds, logf's 1.0 and its table offset); ±inf, ±FLT_MAX; and NaN
/// payloads, quiet and signalling, of both signs.
std::vector<float> ElementwiseInputs() {
  std::vector<float> xs;
  for (uint64_t u = 0; u < (uint64_t{1} << 32); u += 4099) {
    xs.push_back(BitsFloat(static_cast<uint32_t>(u)));
  }
  for (uint32_t u = 0; u < (1u << 16); ++u) {
    xs.push_back(BitsFloat(u));
    xs.push_back(BitsFloat(0x80000000u | u));
  }
  for (uint32_t u = 1; u < 0x00800000u; u += 97) {
    xs.push_back(BitsFloat(u));
    xs.push_back(BitsFloat(0x80000000u | u));
  }
  for (float edge : {-88.0f, 88.0f, 0x1.62e42ep6f, -0x1.62e42ep6f,
                     -0x1.9fe368p6f, -0x1.9d1d9ep6f, 1.0f,
                     BitsFloat(0x3f330000u)}) {
    const uint32_t e = FloatBits(edge);
    for (uint32_t d = 0; d <= 4096; ++d) {
      xs.push_back(BitsFloat(e - d));
      xs.push_back(BitsFloat(e + d));
    }
  }
  for (uint32_t u : {0x7f800000u, 0xff800000u, 0x7f7fffffu, 0xff7fffffu,
                     0x7fc00000u, 0xffc00000u, 0x7f800001u, 0xff800001u,
                     0x7fa12345u, 0xffd54321u, 0x7fffffffu, 0xffffffffu,
                     0x7fbfffffu, 0xffbfffffu}) {
    xs.push_back(BitsFloat(u));
  }
  return xs;
}

/// Runs `kernel` of every tier whose kernel is not the scalar one (the
/// AVX2 tier runs the scalar port itself) against the scalar tier's on
/// `xs`: whole, from 1 to 3 floats past a cache line (the sweep's length
/// is not a multiple of 16, so the masked tail runs too), in place, and
/// on every length up to 40 at three offsets.
template <typename Kernel>
void ExpectElementwiseMatchesScalar(const char* name, Kernel kernel) {
  const std::vector<float> xs = ElementwiseInputs();
  ASSERT_NE(xs.size() % 16, 0u);
  const auto scalar = kernel(*OpsFor(SimdLevel::kScalar));
  std::vector<float> want(xs.size());
  scalar(xs.data(), want.data(), xs.size());
  for (SimdLevel level : AvailableLevels()) {
    const auto fn = kernel(*OpsFor(level));
    if (fn == scalar) continue;
    const char* what = SimdLevelName(level);
    for (size_t offset : {0u, 1u, 3u}) {
      const OffsetFloats in(xs, offset);
      OffsetFloats out(std::vector<float>(xs.size(), -3.0f), offset);
      fn(in.data(), out.data(), xs.size());
      OffsetFloats in_place(xs, offset);
      fn(in_place.data(), in_place.data(), xs.size());
      for (size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(FloatBits(out.data()[i]), FloatBits(want[i]))
            << what << " " << name << " x bits 0x" << std::hex
            << FloatBits(xs[i]) << std::dec << " offset=" << offset;
        ASSERT_EQ(FloatBits(in_place.data()[i]), FloatBits(want[i]))
            << what << " in-place " << name;
      }
    }
    std::vector<float> part(41);
    for (size_t off = 0; off < 3; ++off) {
      for (size_t n = 1; n <= 40; ++n) {
        std::fill(part.begin(), part.end(), -3.0f);
        fn(xs.data() + off, part.data(), n);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(FloatBits(part[i]), FloatBits(want[off + i]))
              << what << " " << name << " offset " << off << " length "
              << n << " element " << i;
        }
        ASSERT_EQ(part[n], -3.0f) << "wrote past length " << n;
      }
    }
  }
}

TEST(KernelsTest, SigmoidMatchesScalarBitwise) {
  ExpectElementwiseMatchesScalar(
      "sigmoid", [](const KernelOps& ops) { return ops.sigmoid_f32; });
}

TEST(KernelsTest, SigmoidInPlaceMatchesScalarOnEveryTier) {
  // The VAE decoder overwrites its logits with their sigmoids, so every
  // tier, the scalar one included, must give the out-of-place bits when
  // y is x, whole and on every length up to 40.
  const std::vector<float> xs = ElementwiseInputs();
  std::vector<float> want(xs.size());
  OpsFor(SimdLevel::kScalar)->sigmoid_f32(xs.data(), want.data(), xs.size());
  for (SimdLevel level : AvailableLevels()) {
    const auto sigmoid = OpsFor(level)->sigmoid_f32;
    const char* what = SimdLevelName(level);
    std::vector<float> v = xs;
    sigmoid(v.data(), v.data(), v.size());
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(FloatBits(v[i]), FloatBits(want[i]))
          << what << " x bits 0x" << std::hex << FloatBits(xs[i]);
    }
    for (size_t n = 1; n <= 40; ++n) {
      std::vector<float> part(xs.begin(), xs.begin() + n);
      sigmoid(part.data(), part.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(FloatBits(part[i]), FloatBits(want[i]))
            << what << " length " << n << " element " << i;
      }
    }
  }
}

TEST(KernelsTest, LogMatchesScalarBitwise) {
  ExpectElementwiseMatchesScalar(
      "log", [](const KernelOps& ops) { return ops.log_f32; });
}

TEST(KernelsTest, PortMatchesLibmOnFmaCpus) {
  // On a CPU with FMA the scalar tier runs the port; without FMA it runs
  // libm's expf and logf (LibmSigmoid, LibmLog). Training keeps the bits
  // of builds that called libm only where the two agree: glibc's FMA
  // build, which the port follows and glibc runs on an x86-64 CPU with
  // FMA. Elsewhere libm may differ in a last bit while every tier still
  // agrees, so the check skips.
#if defined(__GLIBC__) && defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("fma")) {
    GTEST_SKIP() << "glibc runs its expf/logf without FMA on this CPU";
  }
#else
  GTEST_SKIP() << "the port follows glibc's x86-64 FMA expf/logf";
#endif
  const KernelOps& ref = *OpsFor(SimdLevel::kScalar);
  const std::vector<float> xs = ElementwiseInputs();
  std::vector<float> port(xs.size()), libm(xs.size());
  ref.sigmoid_f32(xs.data(), port.data(), xs.size());
  internal::LibmSigmoid(xs.data(), libm.data(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(FloatBits(port[i]), FloatBits(libm[i]))
        << "sigmoid x bits 0x" << std::hex << FloatBits(xs[i]);
  }
  ref.log_f32(xs.data(), port.data(), xs.size());
  internal::LibmLog(xs.data(), libm.data(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(FloatBits(port[i]), FloatBits(libm[i]))
        << "log x bits 0x" << std::hex << FloatBits(xs[i]);
  }
}

TEST(KernelsTest, ExpLogPortSpecialCases) {
  // glibc's special-case results: expf underflows to +0 below -103.97,
  // returns the least subnormal down to -103.97 from -103.28, overflows
  // to +inf above 88.72 and maps -inf to +0; logf(±0) is -inf,
  // logf(inf) inf and logf(1) +0; negative and NaN inputs give NaN.
  // The port is compiled into this test, so it runs on every CPU.
  const float inf = std::numeric_limits<float>::infinity();
  auto sigmoid = [](float x) {
    float y;
    internal::SigmoidLoop(&x, &y, 1);
    return y;
  };
  auto log = [](float x) {
    float y;
    internal::LogLoop(&x, &y, 1);
    return y;
  };
  EXPECT_EQ(FloatBits(sigmoid(-104.0f)), 0u);
  EXPECT_EQ(FloatBits(sigmoid(-103.5f)), 1u);
  EXPECT_EQ(FloatBits(sigmoid(-inf)), 0u);
  EXPECT_EQ(sigmoid(inf), 1.0f);
  EXPECT_EQ(sigmoid(0.0f), 0.5f);
  EXPECT_EQ(sigmoid(-0.0f), 0.5f);
  EXPECT_TRUE(std::isnan(sigmoid(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(log(0.0f), -inf);
  EXPECT_EQ(log(-0.0f), -inf);
  EXPECT_EQ(log(inf), inf);
  EXPECT_EQ(FloatBits(log(1.0f)), 0u);
  EXPECT_TRUE(std::isnan(log(-1.0f)));
  EXPECT_TRUE(std::isnan(log(-inf)));
  // The least subnormal goes through the rescaling branch:
  // log(2^-149) rounds to -0x1.9d1dap+6.
  EXPECT_EQ(FloatBits(log(std::numeric_limits<float>::denorm_min())),
            0xc2ce8ed0u);
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
      ml::ScopedComputePool kernels(&pool);
      const ml::Matrix pooled = ml::MatMul(a, b);
      const ml::Matrix pooled_tb = ml::MatMulTransB(a, bt);
      const ml::Matrix pooled_ta = ml::MatMulTransA(ta, b);
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
