#ifndef E2NVM_COMMON_EXP_LOG_PORT_H_
#define E2NVM_COMMON_EXP_LOG_PORT_H_

// The scalar reference of the sigmoid_f32 and log_f32 kernels on a CPU
// with FMA (kernels.h): a port of glibc 2.36's expf and logf (the ARM
// optimized-routines algorithms in sysdeps/ieee754/flt-32), with the
// same tables and double-precision polynomials, and a fused
// multiply-add exactly where the x86-64 FMA build of glibc
// (e_expf-fma.o, e_logf-fma.o) has one. Each fused step is a std::fma
// here, an exact operation, so the port returns the bits of glibc's
// FMA variant on every input, special cases included. The AVX-512 tier
// runs the same steps lane by lane and calls these for the rare special
// inputs.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace e2nvm::internal {

/// glibc's __exp2f_data: tab[i] = bits(2^(i/32)) - (i << 52) / 32, and
/// the scaled constants expf uses.
inline constexpr int kExpTableBits = 5;
inline constexpr uint64_t kExp2fTable[1 << kExpTableBits] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
/// 32 / ln 2: x * 32 / ln 2 = k + r.
inline constexpr double kExpInvLn2N = 0x1.71547652b82fep+5;
/// 1.5 * 2^52: adding it rounds a double to an integer held in the low
/// mantissa bits.
inline constexpr double kExpShift = 0x1.8p+52;
/// 2^(r/32) ~= C0 r^3 + C1 r^2 + C2 r + 1.
inline constexpr double kExpPoly[3] = {
    0x1.c6af84b912394p-20, 0x1.ebfce50fac4f3p-13, 0x1.62e42ff0c52d6p-6};

/// glibc's __logf_data: 16 subintervals of [0x3f330000, 2 * that) with
/// c near each centre, and log1p's polynomial.
inline constexpr int kLogTableBits = 4;
inline constexpr double kLogfInvC[1 << kLogTableBits] = {
    0x1.661ec79f8f3bep+0, 0x1.571ed4aaf883dp+0, 0x1.49539f0f010bp+0,
    0x1.3c995b0b80385p+0, 0x1.30d190c8864a5p+0, 0x1.25e227b0b8eap+0,
    0x1.1bb4a4a1a343fp+0, 0x1.12358f08ae5bap+0, 0x1.0953f419900a7p+0,
    0x1p+0,               0x1.e608cfd9a47acp-1, 0x1.ca4b31f026aap-1,
    0x1.b2036576afce6p-1, 0x1.9c2d163a1aa2dp-1, 0x1.886e6037841edp-1,
    0x1.767dcf5534862p-1,
};
inline constexpr double kLogfLogC[1 << kLogTableBits] = {
    -0x1.57bf7808caadep-2, -0x1.2bef0a7c06ddbp-2, -0x1.01eae7f513a67p-2,
    -0x1.b31d8a68224e9p-3, -0x1.6574f0ac07758p-3, -0x1.1aa2bc79c81p-3,
    -0x1.a4e76ce8c0e5ep-4, -0x1.1973c5a611cccp-4, -0x1.252f438e10c1ep-5,
    0x0p+0,                0x1.aa5aa5df25984p-5,  0x1.c5e53aa362eb4p-4,
    0x1.526e57720db08p-3,  0x1.bc2860d22477p-3,   0x1.1058bc8a07ee1p-2,
    0x1.4043057b6ee09p-2,
};
inline constexpr double kLogfLn2 = 0x1.62e42fefa39efp-1;
/// log1p(r) ~= r + A2 r^2 + A1 r^3 + A0 r^4 (A[0] pairs with r^4).
inline constexpr double kLogfPoly[3] = {
    -0x1.00ea348b88334p-2, 0x1.5575b0be00b6ap-2, -0x1.ffffef20a4123p-2};
/// Bits of the float the subintervals start from, about 0.7.
inline constexpr uint32_t kLogfOff = 0x3f330000;

/// Bits of expf's special-case bounds: |x| >= 88 (top 12 bits) goes
/// through ExpfPort's branches, and so do inf and NaN.
inline constexpr uint32_t kExpfSpecialTop12 = 0x42b;

// The port is defined here in an unnamed namespace, so every kernel TU
// compiles a copy of its own under its own ISA flags: std::fma is an FMA
// instruction in kernels_avx512.cc and kernels_fma.cc, and would be a
// libm call in a TU without them. One shared inline definition would be
// compiled under one TU's flags and linked into every caller.
namespace {

/// expf(x) as glibc's FMA build computes it, errno aside.
inline float ExpfPort(float x) {
  const uint32_t ix = std::bit_cast<uint32_t>(x);
  const uint32_t abstop = (ix >> 20) & 0x7ff;
  if (abstop >= kExpfSpecialTop12) [[unlikely]] {
    // |x| >= 88 or x is NaN.
    if (ix == 0xff800000u) return 0.0f;  // -inf
    if (abstop >= 0x7f8) return x + x;   // inf or NaN
    if (x > 0x1.62e42ep6f) {             // Overflows.
      return std::numeric_limits<float>::infinity();
    }
    if (x < -0x1.9fe368p6f) return 0.0f;  // Underflows to zero.
    // glibc sets errno here and returns 0x1.4p-75f squared, which
    // rounds to the least subnormal.
    if (x < -0x1.9d1d9ep6f) return 0x1p-149f;
  }
  // x * 32 / ln2 = k + r, k an integer, |r| <= 1/2; then
  // exp(x) = 2^(k/32) * 2^(r/32), the first factor a table entry with k's
  // high bits added to its exponent, the second a cubic.
  const double xd = x;
  double kd = std::fma(kExpInvLn2N, xd, kExpShift);
  const uint64_t ki = std::bit_cast<uint64_t>(kd);
  kd -= kExpShift;
  const double r = std::fma(kExpInvLn2N, xd, -kd);
  const uint64_t t = kExp2fTable[ki % (1u << kExpTableBits)] +
                     (ki << (52 - kExpTableBits));
  const double s = std::bit_cast<double>(t);
  const double z = std::fma(kExpPoly[0], r, kExpPoly[1]);
  const double r2 = r * r;
  double y = std::fma(kExpPoly[2], r, 1.0);
  y = std::fma(z, r2, y);
  return static_cast<float>(y * s);
}

/// logf(x) as glibc's FMA build computes it, errno aside.
inline float LogfPort(float x) {
  uint32_t ix = std::bit_cast<uint32_t>(x);
  if (ix == 0x3f800000u) return 0.0f;  // log(1) = +0 in every rounding mode.
  if (ix - 0x00800000u >= 0x7f800000u - 0x00800000u) [[unlikely]] {
    // x < 0x1p-126, inf or NaN.
    if (ix * 2 == 0) return -std::numeric_limits<float>::infinity();
    if (ix == 0x7f800000u) return x;  // log(inf) = inf.
    if ((ix & 0x80000000u) != 0 || ix * 2 >= 0xff000000u) {
      return (x - x) / (x - x);  // Negative or NaN.
    }
    // Subnormal: scale into the normal range.
    ix = std::bit_cast<uint32_t>(x * 0x1p23f);
    ix -= 23u << 23;
  }
  // x = 2^k z with z in [kLogfOff, 2 kLogfOff) exact, and c near the
  // centre of z's subinterval: log(x) = log1p(z/c - 1) + log(c) + k ln2.
  const uint32_t tmp = ix - kLogfOff;
  const uint32_t i = (tmp >> (23 - kLogTableBits)) % (1u << kLogTableBits);
  const int32_t k = static_cast<int32_t>(tmp) >> 23;
  const uint32_t iz = ix - (tmp & 0xff800000u);
  const double z = std::bit_cast<float>(iz);
  const double r = std::fma(z, kLogfInvC[i], -1.0);
  const double y0 = std::fma(static_cast<double>(k), kLogfLn2, kLogfLogC[i]);
  const double r2 = r * r;
  double y = std::fma(kLogfPoly[1], r, kLogfPoly[2]);
  y = std::fma(kLogfPoly[0], r2, y);
  y = std::fma(y, r2, y0 + r);
  return static_cast<float>(y);
}

/// The argument the stable sigmoid exponentiates, x >= 0 ? -x : x (+0
/// and -0 flip, NaN stays). Negation flips the sign bit alone, so the
/// compare picks the flip and no branch does: on random logits a branch
/// here mispredicts half the time.
inline float SigmoidExpArg(float x) {
  const uint32_t flip = static_cast<uint32_t>(x >= 0) << 31;
  return std::bit_cast<float>(std::bit_cast<uint32_t>(x) ^ flip);
}

/// sigmoid_f32 and log_f32 (kernels.h) one element at a time; compiled
/// with -mfma (kernels_fma.cc), the scalar and AVX2 tiers' on a CPU that
/// reports FMA.
inline void SigmoidLoop(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float e = ExpfPort(SigmoidExpArg(xi));
    y[i] = (xi >= 0 ? 1.0f : e) / (1.0f + e);
  }
}

inline void LogLoop(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = LogfPort(x[i]);
}

}  // namespace

}  // namespace e2nvm::internal

#endif  // E2NVM_COMMON_EXP_LOG_PORT_H_
