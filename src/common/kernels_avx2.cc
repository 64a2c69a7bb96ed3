// AVX2 kernel tier. This translation unit is compiled with -mavx2,
// -ffp-contract=off and WITHOUT -mfma: the bit-identity contract in
// kernels.h requires every multiply-add to round twice, exactly like the
// scalar reference. Its sigmoid_f32 and log_f32 are the scalar expf/logf
// port compiled with -mfma (kernels_fma.cc); the tier is dispatched only
// on a CPU that reports FMA. x86 is little-endian, which the byte/word
// reinterpret casts below rely on.
#include "common/kernels.h"

#ifdef __AVX2__

#include <bit>
#include <cmath>
#include <type_traits>

#include <immintrin.h>

namespace e2nvm::internal {
namespace {

/// Per-64-bit-lane popcount via the classic nibble-LUT pshufb trick:
/// split each byte into nibbles, look both up in a 16-entry bit-count
/// table, then horizontally sum bytes per lane with SAD.
inline __m256i PopcountEpi64(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0F);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline uint64_t SumEpi64(__m256i acc) {
  __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

inline __m256i Load4(const uint64_t* w) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
}

size_t Avx2Popcount(const uint64_t* w, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(acc, PopcountEpi64(Load4(w + i)));
  }
  size_t c = static_cast<size_t>(SumEpi64(acc));
  for (; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(w[i]));
  }
  return c;
}

size_t Avx2Hamming(const uint64_t* a, const uint64_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i diff = _mm256_xor_si256(Load4(a + i), Load4(b + i));
    acc = _mm256_add_epi64(acc, PopcountEpi64(diff));
  }
  size_t c = static_cast<size_t>(SumEpi64(acc));
  for (; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] ^ b[i]));
  }
  return c;
}

DiffCounts Avx2Diff(const uint64_t* old_w, const uint64_t* new_w,
                    size_t n) {
  __m256i set_acc = _mm256_setzero_si256();
  __m256i reset_acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i ov = Load4(old_w + i);
    __m256i nv = Load4(new_w + i);
    __m256i diff = _mm256_xor_si256(ov, nv);
    set_acc = _mm256_add_epi64(set_acc,
                               PopcountEpi64(_mm256_and_si256(diff, nv)));
    reset_acc = _mm256_add_epi64(
        reset_acc, PopcountEpi64(_mm256_and_si256(diff, ov)));
  }
  DiffCounts d;
  d.sets = static_cast<size_t>(SumEpi64(set_acc));
  d.resets = static_cast<size_t>(SumEpi64(reset_acc));
  for (; i < n; ++i) {
    uint64_t diff = old_w[i] ^ new_w[i];
    if (diff == 0) continue;
    d.sets += static_cast<size_t>(__builtin_popcountll(diff & new_w[i]));
    d.resets +=
        static_cast<size_t>(__builtin_popcountll(diff & old_w[i]));
  }
  return d;
}

void Avx2BitsToFloats(const uint64_t* words, size_t num_bits,
                      float* out) {
  // One source byte expands to 8 floats: broadcast the byte, isolate
  // each lane's bit, compare to produce an all-ones mask, and AND with
  // the bit pattern of 1.0f.
  const __m256i bit_of_lane =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256 ones = _mm256_set1_ps(1.0f);
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
  const size_t full_bytes = num_bits / 8;
  for (size_t i = 0; i < full_bytes; ++i) {
    __m256i b = _mm256_set1_epi32(bytes[i]);
    __m256i is_set =
        _mm256_cmpeq_epi32(_mm256_and_si256(b, bit_of_lane), bit_of_lane);
    _mm256_storeu_ps(out + i * 8,
                     _mm256_and_ps(_mm256_castsi256_ps(is_set), ones));
  }
  for (size_t bit = full_bytes * 8; bit < num_bits; ++bit) {
    out[bit] = static_cast<float>((words[bit >> 6] >> (bit & 63)) & 1u);
  }
}

void Avx2Add(float* dst, const float* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void Avx2Adam(float* w, float* m, float* v, const float* g, size_t n,
              const AdamStep& s) {
  // Eight parameters per step in the scalar loop's operation order
  // (kernels.h adam_f32); vdivps and vsqrtps round like their scalar
  // counterparts. The tail runs the scalar loop itself.
  const __m256 b1 = _mm256_set1_ps(s.beta1);
  const __m256 b2 = _mm256_set1_ps(s.beta2);
  const __m256 one_minus_b1 = _mm256_set1_ps(1.0f - s.beta1);
  const __m256 one_minus_b2 = _mm256_set1_ps(1.0f - s.beta2);
  const __m256 lr = _mm256_set1_ps(s.lr);
  const __m256 eps = _mm256_set1_ps(s.eps);
  const __m256 c1 = _mm256_set1_ps(s.correction1);
  const __m256 c2 = _mm256_set1_ps(s.correction2);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 mv =
        _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                      _mm256_mul_ps(one_minus_b1, gv));
    const __m256 vv = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_b2, gv), gv));
    const __m256 mhat = _mm256_div_ps(mv, c1);
    const __m256 vhat = _mm256_div_ps(vv, c2);
    const __m256 upd =
        _mm256_div_ps(_mm256_mul_ps(lr, mhat),
                      _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), upd));
  }
  for (; i < n; ++i) {
    const float gi = g[i];
    m[i] = s.beta1 * m[i] + (1.0f - s.beta1) * gi;
    v[i] = s.beta2 * v[i] + (1.0f - s.beta2) * gi * gi;
    const float mhat = m[i] / s.correction1;
    const float vhat = v[i] / s.correction2;
    w[i] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
  }
}

/// Calls visit(p, unit) for every p in [0, k) whose a[p] is not 0.0f,
/// in ascending p, 64 inputs per block: eight unordered not-equal
/// compares + movemasks build the block's 64-bit nonzero mask, then a
/// tzcnt loop walks it — no data-dependent branch per input. Same
/// predicate as the scalar `!(a[p] == 0.0f)` (-0.0f skipped, NaN
/// visited). `unit` is std::true_type when every nonzero input of the
/// block is exactly 1.0f (NaN is not), so the visitor can drop the
/// multiply (see kernels.h). The floats of a block's last partial
/// 8-chunk are compared one by one, so nothing past a[k - 1] is read.
template <typename Visit>
inline void ForEachNonzero(const float* a, size_t k, Visit&& visit) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  for (size_t p0 = 0; p0 < k; p0 += 64) {
    const size_t len = k - p0 < 64 ? k - p0 : 64;
    uint64_t nz = 0;
    uint64_t not_one = 0;
    size_t q = 0;
    for (; q + 8 <= len; q += 8) {
      const __m256 v = _mm256_loadu_ps(a + p0 + q);
      const __m256 nzv = _mm256_cmp_ps(v, zero, _CMP_NEQ_UQ);
      const __m256 not_onev =
          _mm256_and_ps(nzv, _mm256_cmp_ps(v, one, _CMP_NEQ_UQ));
      nz |= static_cast<uint64_t>(_mm256_movemask_ps(nzv)) << q;
      not_one |= static_cast<uint64_t>(_mm256_movemask_ps(not_onev)) << q;
    }
    for (; q < len; ++q) {
      const float v = a[p0 + q];
      nz |= static_cast<uint64_t>(v != 0.0f) << q;
      not_one |= static_cast<uint64_t>(v != 0.0f && v != 1.0f) << q;
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
inline __m256 Term(std::bool_constant<kUnit>, float av, __m256 w) {
  if constexpr (kUnit) {
    return w;
  } else {
    return _mm256_mul_ps(_mm256_set1_ps(av), w);
  }
}

/// One row's product c = a B (kernels.h gemm_f32, m = 1). Column tiles
/// wide enough to keep the accumulators in registers for the whole
/// k-loop: 32 floats (4 ymm), then 8, then a scalar tail. Every c[j]
/// still sums its nonzero a[p] terms in ascending p with one mul
/// (dropped where it is by exactly 1.0f) and one add per term —
/// bit-identical to the scalar loop.
void GemvRow(const float* a, const float* b, size_t k, size_t n, float* c) {
  size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    ForEachNonzero(a, k, [&](size_t p, auto unit) {
      const float* brow = b + p * n + j;
      acc0 = _mm256_add_ps(acc0, Term(unit, a[p], _mm256_loadu_ps(brow)));
      acc1 = _mm256_add_ps(acc1,
                           Term(unit, a[p], _mm256_loadu_ps(brow + 8)));
      acc2 = _mm256_add_ps(acc2,
                           Term(unit, a[p], _mm256_loadu_ps(brow + 16)));
      acc3 = _mm256_add_ps(acc3,
                           Term(unit, a[p], _mm256_loadu_ps(brow + 24)));
    });
    _mm256_storeu_ps(c + j, acc0);
    _mm256_storeu_ps(c + j + 8, acc1);
    _mm256_storeu_ps(c + j + 16, acc2);
    _mm256_storeu_ps(c + j + 24, acc3);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    ForEachNonzero(a, k, [&](size_t p, auto unit) {
      acc = _mm256_add_ps(
          acc, Term(unit, a[p], _mm256_loadu_ps(b + p * n + j)));
    });
    _mm256_storeu_ps(c + j, acc);
  }
  if (j < n) {
    for (size_t jj = j; jj < n; ++jj) c[jj] = 0.0f;
    ForEachNonzero(a, k, [&](size_t p, auto) {
      const float av = a[p];
      const float* brow = b + p * n;
      for (size_t jj = j; jj < n; ++jj) c[jj] += av * brow[jj];
    });
  }
}

/// gemm_f32: each row of A is one GemvRow walk (kernels.h).
void Avx2Gemm(const float* a, const float* b, size_t m, size_t k, size_t n,
              float* c) {
  for (size_t i = 0; i < m; ++i) GemvRow(a + i * k, b, k, n, c + i * n);
}

// CRC32C via the SSE4.2 crc32 instruction (the crc32 unit is baseline
// on every AVX2 CPU and -mavx2 implies -msse4.2). The instruction works
// on the bit-inverted running state, so invert on entry/exit to keep the
// kernel's standard seed-0 chaining convention. Exact integer math:
// bit-identical to the scalar table by construction.
uint32_t Avx2Crc32c(uint32_t crc, const void* data, size_t n) {
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

const KernelOps kAvx2Ops = {
    Avx2Popcount, Avx2Hamming, Avx2Diff,   Avx2BitsToFloats, Avx2Add,
    Avx2Adam,     Avx2Gemm,    FmaSigmoid, FmaLog,           Avx2Crc32c,
};

}  // namespace

const KernelOps* Avx2Ops() { return &kAvx2Ops; }

}  // namespace e2nvm::internal

#else  // !__AVX2__

namespace e2nvm::internal {
const KernelOps* Avx2Ops() { return nullptr; }
}  // namespace e2nvm::internal

#endif  // __AVX2__
