#ifndef E2NVM_COMMON_KERNELS_H_
#define E2NVM_COMMON_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace e2nvm {

/// Sets/resets decomposition of a word-level bit diff (Alg. 1
/// bookkeeping: a 0->1 program is a SET pulse, a 1->0 program a RESET
/// pulse; PCM charges them differently).
struct DiffCounts {
  size_t sets = 0;
  size_t resets = 0;
};

/// Instruction-set tiers of the kernel layer, ordered so that a higher
/// value strictly extends the lower ones on the CPUs we dispatch for.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  // Requires AVX-512F + VPOPCNTDQ.
};

/// Scalars of one Adam step (see KernelOps::adam_f32): the moment decay
/// rates, learning rate, epsilon, and the bias corrections 1 - beta^t of
/// the step being taken.
struct AdamStep {
  float beta1;
  float beta2;
  float lr;
  float eps;
  float correction1;
  float correction2;
};

/// The dispatchable hot-loop kernels. Every E2-NVM operation bottoms out
/// in one of these: the bit kernels carry Alg. 1's differential-write
/// accounting and the DAP's Hamming scans, the float kernels carry the
/// VAE encode GEMM, the fused k-means assignment and VAE training.
///
/// ## Bit-identity contract
///
/// Each tier must produce results bit-identical to the scalar reference:
///  - integer kernels are trivially exact (popcounts over any grouping);
///  - float kernels vectorize across independent *output elements* only.
///    `add_f32`, `adam_f32`, `sigmoid_f32` and `log_f32` are
///    element-wise; `gemm_f32` keeps each output column of each row in
///    its own lane, accumulating its k products in the same ascending
///    order as the scalar loop. No tier may reassociate an accumulation
///    or fuse a multiply-add the reference does not fuse: every product
///    is rounded, then added and rounded again, exactly like
///    `c += a * b` compiled without FP contraction.
///    The kernel translation units are therefore built with
///    `-ffp-contract=off`, and the AVX2 tier's WITHOUT `-mfma`.
///  - The one exception is deliberate and exact: on a CPU that reports
///    FMA, the scalar reference of `sigmoid_f32` and `log_f32` is a port
///    of glibc 2.36's expf and logf (common/exp_log_port.h) whose fused
///    steps are written as std::fma, a correctly rounded operation,
///    compiled with -mfma (kernels_fma.cc). Every tier rounds each of
///    those steps exactly once, like the reference: the scalar and AVX2
///    tiers run that build, the AVX-512 tier AVX-512F's FMA
///    instructions. Without FMA (or off x86) the scalar tier calls libm's
///    expf and logf, since the port's std::fma would be a software
///    routine; no SIMD tier is dispatched there, as both need FMA.
struct KernelOps {
  /// Total set bits in `w[0..n)`.
  size_t (*popcount_words)(const uint64_t* w, size_t n);
  /// popcount(a ^ b) over n words — the placement similarity metric.
  size_t (*hamming_words)(const uint64_t* a, const uint64_t* b, size_t n);
  /// Set/reset transition counts of programming `new_w` over `old_w`.
  DiffCounts (*diff_words)(const uint64_t* old_w, const uint64_t* new_w,
                           size_t n);
  /// Expands the low `num_bits` bits (LSB-first per word) to
  /// 0.0f/1.0f floats — the model featurization kernel.
  void (*bits_to_floats)(const uint64_t* words, size_t num_bits,
                         float* out);
  /// dst[i] += src[i] — matrix sums and bias rows.
  void (*add_f32)(float* dst, const float* src, size_t n);
  /// One Adam update (Kingma & Ba) of n parameters in place, rounded
  /// operation by operation exactly like the scalar loop
  ///   m[i] = beta1 * m[i] + (1 - beta1) * g[i]
  ///   v[i] = beta2 * v[i] + ((1 - beta2) * g[i]) * g[i]
  ///   w[i] -= (lr * (m[i] / correction1)) /
  ///           (sqrt(v[i] / correction2) + eps)
  /// Division and square root are correctly rounded in every tier
  /// (IEEE 754), and each element is independent, so the SIMD tiers
  /// only run it across lanes. The training step of every Dense layer
  /// (ParamBlock::Step) bottoms out here.
  void (*adam_f32)(float* w, float* m, float* v, const float* g, size_t n,
                   const AdamStep& step);
  /// Row-major product C = A B: c[i][j] = sum_p a[i][p] * b[p][j] for
  /// A m x k, B k x n and C m x n, all rows packed (strides k, n and n),
  /// overwriting C. Each c[i][j] accumulates in ascending p with zero
  /// a[i][p] terms skipped; the register-blocked SIMD tiers keep that
  /// element order (and that skip), so they are bit-identical to the
  /// scalar loop. The skip predicate is the scalar `a[i][p] == 0.0f`:
  /// -0.0f is skipped like 0.0f, and a NaN a[i][p] is visited (so it
  /// propagates).
  ///
  /// The SIMD tiers take a row's inputs in blocks of 64: unordered
  /// not-equal compares (4 on AVX-512, 8 on AVX2) build one 64-bit
  /// nonzero mask per block, and a tzcnt loop walks it in ascending p,
  /// so the skip costs no data-dependent branch per input. When every
  /// nonzero input of a block is exactly 1.0f — every block of a
  /// featurized encode — the walk adds the B rows without multiplying.
  /// That is exact: for every float w, 1.0f * w rounds to w itself (±0,
  /// denormals and ±inf included; a NaN stays a NaN), so each c[i][j]
  /// receives the same operands in the same order as the scalar
  /// `c[i][j] += a[i][p] * b[p][j]`. The scalar tier keeps the branchy
  /// reference loop.
  ///
  /// Each row of A runs that walk on its own (m = 1 is a write-path
  /// encode), so any split of the rows gives the same bits.
  ///
  /// MatMulInto runs it on each block of output rows, so it carries the
  /// write path's encode and every training product: keeping the whole
  /// k-loop inside one kernel call holds the accumulators in registers
  /// instead of re-loading the output row once per nonzero a[i][p].
  ///
  /// The transposed products run on it too, on a transposed copy of one
  /// operand (`MatMulTransA`: the weight gradients X^T dY;
  /// `MatMulTransB`: the input gradients dY W^T), and equal their direct
  /// loops bit for bit:
  ///  - A^T B's direct loop adds a[p][i] * B's row p into C's row i for
  ///    every nonzero a[p][i], in ascending p. gemm over the rows of A^T
  ///    adds the same terms in the same order with the same zero skip.
  ///  - A B^T's direct loop is a plain dot product, s = +0 then
  ///    s += a[p] * b[j][p] for every p. gemm over B^T skips the terms
  ///    whose a[p] is ±0. Such a term is ±0 when b[j][p] is finite, and
  ///    adding ±0 leaves s unchanged unless s is itself a zero of the
  ///    other sign; but an accumulator that starts at +0 never becomes
  ///    -0 under round-to-nearest (x + y is -0 only when both are -0,
  ///    and exact cancellation gives +0). So skipping equals adding
  ///    whenever B is finite; a weight matrix that is not finite has
  ///    already lost training.
  void (*gemm_f32)(const float* a, const float* b, size_t m, size_t k,
                   size_t n, float* c);
  /// y[i] = 1 / (1 + exp(-x[i])) in the stable two-branch form, for i in
  /// [0, n): e = expf(x[i] >= 0 ? -x[i] : x[i]), so the exp never
  /// overflows, then y[i] = (x[i] >= 0 ? 1 : e) / (1 + e) in float. expf
  /// is the port or libm's (see the contract above); the port returns
  /// glibc's expf bits on every float where glibc runs its FMA build, as
  /// it does on an x86-64 CPU with FMA. The VAE decoder and the LSTM
  /// gates run on it. `y` may be `x` itself but may not partly overlap
  /// it.
  void (*sigmoid_f32)(const float* x, float* y, size_t n);
  /// y[i] = logf(x[i]) for i in [0, n), by the port or libm's (see the
  /// contract above); special inputs as glibc: log(±0) = -inf,
  /// log(inf) = inf, NaN for a negative x or a NaN. The VAE's
  /// cross-entropy runs on it. Same aliasing rule as sigmoid_f32.
  void (*log_f32)(const float* x, float* y, size_t n);
  /// CRC32C (Castagnoli, reflected 0x82F63B78) of `data[0..n)` continued
  /// from `crc` — the integrity checksum of the durability layer (pool
  /// headers, journal slots, segment scrub). Standard convention: pass 0
  /// to start, chain by passing the previous return value; the result of
  /// one call over a buffer equals chained calls over any split of it.
  /// Integer-exact, so every tier is trivially bit-identical (the x86
  /// tiers use the SSE4.2 crc32 instruction, implied by AVX2).
  uint32_t (*crc32c)(uint32_t crc, const void* data, size_t n);
};

/// The process-wide kernel table. Chosen once on first use: the best
/// tier both compiled in and reported by CPUID, clamped down by the
/// `E2NVM_SIMD=scalar|avx2|avx512` environment override. Thread-safe.
const KernelOps& Ops();

/// Tier behind Ops().
SimdLevel ActiveSimdLevel();

/// Stable lowercase name ("scalar", "avx2", "avx512") for reports.
const char* SimdLevelName(SimdLevel level);

/// Table for one specific tier, or nullptr when that tier was not
/// compiled in or this CPU lacks it — lets tests compare every
/// available tier against the scalar reference in a single process.
const KernelOps* OpsFor(SimdLevel level);

/// Dispatched one-shot CRC32C of a buffer (seed 0). For incremental
/// checksums call Ops().crc32c directly.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Ops().crc32c(0, data, n);
}

namespace internal {
/// Defined by the feature-gated TUs (kernels_avx2.cc, kernels_avx512.cc);
/// referenced only when the matching E2NVM_HAVE_* macro is set.
const KernelOps* Avx2Ops();
const KernelOps* Avx512Ops();
/// The expf/logf port's sigmoid_f32 and log_f32 compiled with -mfma
/// (kernels_fma.cc, E2NVM_HAVE_FMA): the scalar and AVX2 tiers' on a CPU
/// that reports FMA.
void FmaSigmoid(const float* x, float* y, size_t n);
void FmaLog(const float* x, float* y, size_t n);
/// sigmoid_f32 and log_f32 through libm's expf and logf: the scalar
/// tier's on a CPU without FMA (kernels.cc).
void LibmSigmoid(const float* x, float* y, size_t n);
void LibmLog(const float* x, float* y, size_t n);
}  // namespace internal

}  // namespace e2nvm

#endif  // E2NVM_COMMON_KERNELS_H_
