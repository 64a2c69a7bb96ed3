// AVX-512 kernel tier (AVX-512F + VPOPCNTDQ). Compiled with exactly
// those ISA flags plus -ffp-contract=off and WITHOUT -mfma — see the
// bit-identity contract in kernels.h; the expf/logf port's fused steps
// are explicit FMA intrinsics, which AVX-512F has. The masked
// loads/stores make every tail exact without scalar epilogues:
// masked-out lanes are architecturally guaranteed not to fault.
#include "common/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <bit>
#include <type_traits>

#include <immintrin.h>

#include "common/exp_log_port.h"

namespace e2nvm::internal {
namespace {

inline __mmask8 TailMask8(size_t remaining) {
  return static_cast<__mmask8>((1u << remaining) - 1);
}

inline __mmask16 TailMask16(size_t remaining) {
  return static_cast<__mmask16>((1u << remaining) - 1);
}

size_t Avx512Popcount(const uint64_t* w, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_loadu_si512(w + i)));
  }
  if (i < n) {
    __m512i v = _mm512_maskz_loadu_epi64(TailMask8(n - i), w + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return static_cast<size_t>(_mm512_reduce_add_epi64(acc));
}

size_t Avx512Hamming(const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i diff = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                    _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(diff));
  }
  if (i < n) {
    __mmask8 m = TailMask8(n - i);
    __m512i diff = _mm512_xor_si512(_mm512_maskz_loadu_epi64(m, a + i),
                                    _mm512_maskz_loadu_epi64(m, b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(diff));
  }
  return static_cast<size_t>(_mm512_reduce_add_epi64(acc));
}

DiffCounts Avx512Diff(const uint64_t* old_w, const uint64_t* new_w,
                      size_t n) {
  __m512i set_acc = _mm512_setzero_si512();
  __m512i reset_acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i ov = _mm512_loadu_si512(old_w + i);
    __m512i nv = _mm512_loadu_si512(new_w + i);
    __m512i diff = _mm512_xor_si512(ov, nv);
    set_acc = _mm512_add_epi64(
        set_acc, _mm512_popcnt_epi64(_mm512_and_si512(diff, nv)));
    reset_acc = _mm512_add_epi64(
        reset_acc, _mm512_popcnt_epi64(_mm512_and_si512(diff, ov)));
  }
  if (i < n) {
    __mmask8 m = TailMask8(n - i);
    __m512i ov = _mm512_maskz_loadu_epi64(m, old_w + i);
    __m512i nv = _mm512_maskz_loadu_epi64(m, new_w + i);
    __m512i diff = _mm512_xor_si512(ov, nv);
    set_acc = _mm512_add_epi64(
        set_acc, _mm512_popcnt_epi64(_mm512_and_si512(diff, nv)));
    reset_acc = _mm512_add_epi64(
        reset_acc, _mm512_popcnt_epi64(_mm512_and_si512(diff, ov)));
  }
  DiffCounts d;
  d.sets = static_cast<size_t>(_mm512_reduce_add_epi64(set_acc));
  d.resets = static_cast<size_t>(_mm512_reduce_add_epi64(reset_acc));
  return d;
}

void Avx512BitsToFloats(const uint64_t* words, size_t num_bits,
                        float* out) {
  // Sixteen bits expand per step: the chunk itself is the write mask,
  // so a masked move of 1.0f materializes the floats directly.
  const __m512 ones = _mm512_set1_ps(1.0f);
  const uint16_t* chunks = reinterpret_cast<const uint16_t*>(words);
  const size_t full = num_bits / 16;
  for (size_t i = 0; i < full; ++i) {
    _mm512_storeu_ps(
        out + i * 16,
        _mm512_maskz_mov_ps(static_cast<__mmask16>(chunks[i]), ones));
  }
  for (size_t bit = full * 16; bit < num_bits; ++bit) {
    out[bit] = static_cast<float>((words[bit >> 6] >> (bit & 63)) & 1u);
  }
}

void Avx512Add(float* dst, const float* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                                            _mm512_loadu_ps(src + i)));
  }
  if (i < n) {
    __mmask16 m = TailMask16(n - i);
    __m512 sum = _mm512_add_ps(_mm512_maskz_loadu_ps(m, dst + i),
                               _mm512_maskz_loadu_ps(m, src + i));
    _mm512_mask_storeu_ps(dst + i, m, sum);
  }
}

void Avx512Adam(float* w, float* m, float* v, const float* g, size_t n,
                const AdamStep& s) {
  // Sixteen parameters per step in the scalar loop's operation order
  // (kernels.h adam_f32); vdivps and vsqrtps round like their scalar
  // counterparts. The masked tail computes its dead lanes on zeros and
  // never stores them.
  const __m512 b1 = _mm512_set1_ps(s.beta1);
  const __m512 b2 = _mm512_set1_ps(s.beta2);
  const __m512 one_minus_b1 = _mm512_set1_ps(1.0f - s.beta1);
  const __m512 one_minus_b2 = _mm512_set1_ps(1.0f - s.beta2);
  const __m512 lr = _mm512_set1_ps(s.lr);
  const __m512 eps = _mm512_set1_ps(s.eps);
  const __m512 c1 = _mm512_set1_ps(s.correction1);
  const __m512 c2 = _mm512_set1_ps(s.correction2);
  auto step = [&](size_t i, __mmask16 live) {
    const __m512 gv = _mm512_maskz_loadu_ps(live, g + i);
    const __m512 mv =
        _mm512_add_ps(_mm512_mul_ps(b1, _mm512_maskz_loadu_ps(live, m + i)),
                      _mm512_mul_ps(one_minus_b1, gv));
    const __m512 vv = _mm512_add_ps(
        _mm512_mul_ps(b2, _mm512_maskz_loadu_ps(live, v + i)),
        _mm512_mul_ps(_mm512_mul_ps(one_minus_b2, gv), gv));
    const __m512 mhat = _mm512_div_ps(mv, c1);
    const __m512 vhat = _mm512_div_ps(vv, c2);
    const __m512 upd =
        _mm512_div_ps(_mm512_mul_ps(lr, mhat),
                      _mm512_add_ps(_mm512_sqrt_ps(vhat), eps));
    _mm512_mask_storeu_ps(m + i, live, mv);
    _mm512_mask_storeu_ps(v + i, live, vv);
    _mm512_mask_storeu_ps(
        w + i, live,
        _mm512_sub_ps(_mm512_maskz_loadu_ps(live, w + i), upd));
  };
  size_t i = 0;
  for (; i + 16 <= n; i += 16) step(i, static_cast<__mmask16>(0xFFFF));
  if (i < n) step(i, TailMask16(n - i));
}

/// Calls visit(p, unit) for every p in [0, k) whose a[p] is not 0.0f,
/// in ascending p, 64 inputs per block: four unordered not-equal
/// compares against 0.0f build the block's 64-bit nonzero mask and a
/// tzcnt loop walks it, so the zero skip costs no data-dependent branch
/// per input (featurized values are near-random 0/1 patterns, which
/// defeat branch prediction). The predicate is exactly the scalar
/// `!(a[p] == 0.0f)`: -0.0f is skipped like 0.0f, and NaN (unordered) is
/// visited. `unit` is std::true_type when every nonzero input of the
/// block is exactly 1.0f — a NaN or any other value makes it
/// std::false_type — so the visitor can drop the multiply (see
/// kernels.h). Masked loads never touch a[k..].
template <typename Visit>
inline void ForEachNonzero(const float* a, size_t k, Visit&& visit) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  for (size_t p0 = 0; p0 < k; p0 += 64) {
    const size_t len = k - p0 < 64 ? k - p0 : 64;
    uint64_t nz = 0;
    uint64_t not_one = 0;
    for (size_t q = 0; q < len; q += 16) {
      const __mmask16 live = len - q >= 16 ? static_cast<__mmask16>(0xFFFF)
                                           : TailMask16(len - q);
      const __m512 v = _mm512_maskz_loadu_ps(live, a + p0 + q);
      const __mmask16 nzq = _mm512_cmp_ps_mask(v, zero, _CMP_NEQ_UQ);
      nz |= uint64_t{nzq} << q;
      not_one |= uint64_t{_mm512_mask_cmp_ps_mask(nzq, v, one, _CMP_NEQ_UQ)}
                 << q;
    }
    auto walk = [&](auto unit) {
      for (; nz != 0; nz &= nz - 1) {
        visit(p0 + static_cast<size_t>(std::countr_zero(nz)), unit);
      }
    };
    if (not_one == 0) {
      walk(std::true_type{});
    } else {
      walk(std::false_type{});
    }
  }
}

/// One gemm term: a[p] * w as the scalar tier rounds it, or w itself for
/// a block of exactly-1.0f inputs (1.0f * w == w for every float w).
template <bool kUnit>
inline __m512 Term(std::bool_constant<kUnit>, float av, __m512 w) {
  if constexpr (kUnit) {
    return w;
  } else {
    return _mm512_mul_ps(_mm512_set1_ps(av), w);
  }
}

/// One row's product c = a B (kernels.h gemm_f32, m = 1). Column tiles
/// of 64 floats (4 zmm accumulators held across the whole k-loop), then
/// masked 16-wide steps for the tail. Per-element math is ascending-p
/// mul-then-add with zero a[p] skipped (the multiply dropped where it is
/// by exactly 1.0f) — bit-identical to the scalar reference.
void GemvRow(const float* a, const float* b, size_t k, size_t n, float* c) {
  size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps();
    __m512 acc3 = _mm512_setzero_ps();
    ForEachNonzero(a, k, [&](size_t p, auto unit) {
      const float* brow = b + p * n + j;
      acc0 = _mm512_add_ps(acc0, Term(unit, a[p], _mm512_loadu_ps(brow)));
      acc1 = _mm512_add_ps(acc1,
                           Term(unit, a[p], _mm512_loadu_ps(brow + 16)));
      acc2 = _mm512_add_ps(acc2,
                           Term(unit, a[p], _mm512_loadu_ps(brow + 32)));
      acc3 = _mm512_add_ps(acc3,
                           Term(unit, a[p], _mm512_loadu_ps(brow + 48)));
    });
    _mm512_storeu_ps(c + j, acc0);
    _mm512_storeu_ps(c + j + 16, acc1);
    _mm512_storeu_ps(c + j + 32, acc2);
    _mm512_storeu_ps(c + j + 48, acc3);
  }
  for (; j < n; j += 16) {
    const __mmask16 m =
        n - j >= 16 ? static_cast<__mmask16>(0xFFFF) : TailMask16(n - j);
    __m512 acc = _mm512_setzero_ps();
    ForEachNonzero(a, k, [&](size_t p, auto unit) {
      acc = _mm512_add_ps(
          acc, Term(unit, a[p], _mm512_maskz_loadu_ps(m, b + p * n + j)));
    });
    _mm512_mask_storeu_ps(c + j, m, acc);
  }
}

void Avx512Gemm(const float* a, const float* b, size_t m, size_t k,
                size_t n, float* c) {
  for (size_t i = 0; i < m; ++i) GemvRow(a + i * k, b, k, n, c + i * n);
}

// ------------------------------------------------ expf/logf port --
//
// Eight lanes of doubles run exp_log_port.h's steps: the same
// conversions, integer tricks and polynomials, each fused step one
// vfmadd/vfmsub (fmsub(a, b, c) rounds a * b - c once, as
// std::fma(a, b, -c) does). Table lookups are two-source permutes over
// the table held in registers. Lanes the scalar port sends down a
// special-case branch are recomputed by it.

/// The 16 floats of `v` as two halves of 8.
inline __m256 LowHalf(__m512 v) { return _mm512_castps512_ps256(v); }
inline __m256 HighHalf(__m512 v) {
  return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
}
inline __m512 Join(__m256 lo, __m256 hi) {
  return _mm512_castpd_ps(_mm512_insertf64x4(
      _mm512_castps_pd(_mm512_castps256_ps512(lo)), _mm256_castps_pd(hi),
      1));
}

/// Lanes of `v` in `lanes` replaced by f(v[lane]).
template <typename F>
inline __m512 PatchLanes(__m512 out, __m512 v, __mmask16 lanes, F f) {
  alignas(64) float in_f[16], out_f[16];
  _mm512_store_ps(in_f, v);
  _mm512_store_ps(out_f, out);
  for (uint32_t bits = lanes; bits != 0; bits &= bits - 1) {
    const int q = std::countr_zero(bits);
    out_f[q] = f(in_f[q]);
  }
  return _mm512_load_ps(out_f);
}

/// ExpfPort's main path on 8 floats.
inline __m256 ExpPort8(__m256 x) {
  const __m512i* tab = reinterpret_cast<const __m512i*>(internal::kExp2fTable);
  const __m512d inv_ln2n = _mm512_set1_pd(internal::kExpInvLn2N);
  const __m512d shift = _mm512_set1_pd(internal::kExpShift);
  const __m512d xd = _mm512_cvtps_pd(x);
  __m512d kd = _mm512_fmadd_pd(inv_ln2n, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, shift);
  const __m512d r = _mm512_fmsub_pd(inv_ln2n, xd, kd);
  // tab[ki % 32]: bits 0-3 pick an entry of a 16-entry half, bit 4 the
  // half.
  const __m512i lo = _mm512_permutex2var_epi64(_mm512_loadu_si512(tab), ki,
                                               _mm512_loadu_si512(tab + 1));
  const __m512i hi = _mm512_permutex2var_epi64(
      _mm512_loadu_si512(tab + 2), ki, _mm512_loadu_si512(tab + 3));
  const __mmask8 upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
  const __m512i t = _mm512_add_epi64(_mm512_mask_blend_epi64(upper, lo, hi),
                                     _mm512_slli_epi64(ki, 47));
  const __m512d z = _mm512_fmadd_pd(_mm512_set1_pd(internal::kExpPoly[0]), r,
                                    _mm512_set1_pd(internal::kExpPoly[1]));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(internal::kExpPoly[2]), r,
                              _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  return _mm512_cvtpd_ps(_mm512_mul_pd(y, _mm512_castsi512_pd(t)));
}

/// sigmoid_f32 on the lanes of `live`, 16 at a time.
inline void Sigmoid16(const float* x, float* y, __mmask16 live) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 xv = _mm512_maskz_loadu_ps(live, x);
  // The exp argument x >= 0 ? -x : x, by flipping the sign bit.
  const __mmask16 nonneg =
      _mm512_cmp_ps_mask(xv, _mm512_setzero_ps(), _CMP_GE_OQ);
  const __m512i xi = _mm512_castps_si512(xv);
  const __m512 arg = _mm512_castsi512_ps(_mm512_mask_xor_epi32(
      xi, nonneg, xi, _mm512_set1_epi32(static_cast<int>(0x80000000u))));
  __m512 e = Join(ExpPort8(LowHalf(arg)), ExpPort8(HighHalf(arg)));
  // |arg| >= 88 or NaN: ExpfPort's special-case branches.
  const __mmask16 special = _mm512_mask_cmpge_epu32_mask(
      live,
      _mm512_and_si512(_mm512_castps_si512(arg),
                       _mm512_set1_epi32(0x7fffffff)),
      _mm512_set1_epi32(static_cast<int>(internal::kExpfSpecialTop12 << 20)));
  if (special != 0) [[unlikely]] {
    e = PatchLanes(e, arg, special, internal::ExpfPort);
  }
  const __m512 num = _mm512_mask_blend_ps(nonneg, e, one);
  _mm512_mask_storeu_ps(y, live,
                        _mm512_div_ps(num, _mm512_add_ps(one, e)));
}

void Avx512Sigmoid(const float* x, float* y, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    Sigmoid16(x + i, y + i, static_cast<__mmask16>(0xFFFF));
  }
  if (i < n) Sigmoid16(x + i, y + i, TailMask16(n - i));
}

/// LogfPort's main path on 8 lanes: z and k as LogfPort derives them
/// (as floats and int32s), `idx` the table index of each lane.
inline __m256 LogPort8(__m256 z, __m256i k, __m256i idx) {
  const __m512i i64 = _mm512_cvtepu32_epi64(idx);
  const __m512d invc =
      _mm512_permutex2var_pd(_mm512_loadu_pd(internal::kLogfInvC), i64,
                             _mm512_loadu_pd(internal::kLogfInvC + 8));
  const __m512d logc =
      _mm512_permutex2var_pd(_mm512_loadu_pd(internal::kLogfLogC), i64,
                             _mm512_loadu_pd(internal::kLogfLogC + 8));
  const __m512d r =
      _mm512_fmsub_pd(_mm512_cvtps_pd(z), invc, _mm512_set1_pd(1.0));
  const __m512d y0 = _mm512_fmadd_pd(
      _mm512_cvtepi32_pd(k), _mm512_set1_pd(internal::kLogfLn2), logc);
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(internal::kLogfPoly[1]), r,
                              _mm512_set1_pd(internal::kLogfPoly[2]));
  y = _mm512_fmadd_pd(_mm512_set1_pd(internal::kLogfPoly[0]), r2, y);
  y = _mm512_fmadd_pd(y, r2, _mm512_add_pd(y0, r));
  return _mm512_cvtpd_ps(y);
}

/// log_f32 on the lanes of `live`, 16 at a time.
inline void Log16(const float* x, float* y, __mmask16 live) {
  const __m512 xv = _mm512_maskz_loadu_ps(live, x);
  const __m512i ix = _mm512_castps_si512(xv);
  // x < 0x1p-126 (zero, subnormal, negative), inf or NaN.
  const __mmask16 special = _mm512_mask_cmpge_epu32_mask(
      live, _mm512_sub_epi32(ix, _mm512_set1_epi32(0x00800000)),
      _mm512_set1_epi32(0x7f800000 - 0x00800000));
  const __m512i tmp =
      _mm512_sub_epi32(ix, _mm512_set1_epi32(internal::kLogfOff));
  const __m512i idx = _mm512_and_si512(
      _mm512_srli_epi32(tmp, 23 - internal::kLogTableBits),
      _mm512_set1_epi32((1 << internal::kLogTableBits) - 1));
  const __m512i k = _mm512_srai_epi32(tmp, 23);
  const __m512 z = _mm512_castsi512_ps(_mm512_sub_epi32(
      ix, _mm512_and_si512(tmp, _mm512_set1_epi32(
                                    static_cast<int>(0xff800000u)))));
  auto half = [](__m512i v, int h) {
    return _mm512_extracti64x4_epi64(v, h);
  };
  __m512 out = Join(LogPort8(LowHalf(z), half(k, 0), half(idx, 0)),
                    LogPort8(HighHalf(z), half(k, 1), half(idx, 1)));
  if (special != 0) [[unlikely]] {
    out = PatchLanes(out, xv, special, internal::LogfPort);
  }
  _mm512_mask_storeu_ps(y, live, out);
}

void Avx512Log(const float* x, float* y, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    Log16(x + i, y + i, static_cast<__mmask16>(0xFFFF));
  }
  if (i < n) Log16(x + i, y + i, TailMask16(n - i));
}

// CRC32C through the same SSE4.2 crc32 unit as the AVX2 tier (baseline
// on every AVX-512 CPU); duplicated here so the tier's table stands
// alone. See kernels_avx2.cc for the inversion convention.
uint32_t Avx512Crc32c(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t state = ~crc;
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    state = _mm_crc32_u64(state, word);
    p += 8;
    n -= 8;
  }
  auto s32 = static_cast<uint32_t>(state);
  while (n > 0) {
    s32 = _mm_crc32_u8(s32, *p++);
    --n;
  }
  return ~s32;
}

const KernelOps kAvx512Ops = {
    Avx512Popcount, Avx512Hamming,      Avx512Diff, Avx512BitsToFloats,
    Avx512Add,      Avx512Adam,         Avx512Gemm, Avx512Sigmoid,
    Avx512Log,      Avx512Crc32c,
};

}  // namespace

const KernelOps* Avx512Ops() { return &kAvx512Ops; }

}  // namespace e2nvm::internal

#else  // !(__AVX512F__ && __AVX512VPOPCNTDQ__)

namespace e2nvm::internal {
const KernelOps* Avx512Ops() { return nullptr; }
}  // namespace e2nvm::internal

#endif  // __AVX512F__ && __AVX512VPOPCNTDQ__
