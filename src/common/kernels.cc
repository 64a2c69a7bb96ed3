#include "common/kernels.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/exp_log_port.h"
#include "common/logging.h"

namespace e2nvm {

namespace internal {

/// sigmoid_f32 and log_f32 through libm's expf and logf, for a CPU on
/// which the expf/logf port's fused steps would be calls to a software
/// fma (about a hundred times slower than libm's own expf): there no
/// tier runs the port (the SIMD tiers need FMA), and training keeps the
/// bits libm gives it, as before the port.
void LibmSigmoid(const float* x, float* y, size_t n) {
  // Two passes per stack chunk: libm's expf call for call, then the
  // select and divide, a loop with no branch that the compiler
  // vectorizes (twice as fast as one pass); the chunk lets y be x.
  constexpr size_t kChunk = 256;
  float e[kChunk];
  for (size_t i0 = 0; i0 < n; i0 += kChunk) {
    const size_t len = n - i0 < kChunk ? n - i0 : kChunk;
    for (size_t i = 0; i < len; ++i) {
      e[i] = std::exp(SigmoidExpArg(x[i0 + i]));
    }
    for (size_t i = 0; i < len; ++i) {
      y[i0 + i] = (x[i0 + i] >= 0 ? 1.0f : e[i]) / (1.0f + e[i]);
    }
  }
}

void LibmLog(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = std::log(x[i]);
}

}  // namespace internal

namespace {

// ------------------------------------------------- scalar reference --

size_t ScalarPopcount(const uint64_t* w, size_t n) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    c += static_cast<size_t>(std::popcount(w[i]));
  }
  return c;
}

size_t ScalarHamming(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    c += static_cast<size_t>(std::popcount(a[i] ^ b[i]));
  }
  return c;
}

DiffCounts ScalarDiff(const uint64_t* old_w, const uint64_t* new_w,
                      size_t n) {
  DiffCounts d;
  for (size_t i = 0; i < n; ++i) {
    uint64_t diff = old_w[i] ^ new_w[i];
    if (diff == 0) continue;
    d.sets += static_cast<size_t>(std::popcount(diff & new_w[i]));
    d.resets += static_cast<size_t>(std::popcount(diff & old_w[i]));
  }
  return d;
}

void ScalarBitsToFloats(const uint64_t* words, size_t num_bits,
                        float* out) {
  const size_t full_words = num_bits / 64;
  for (size_t w = 0; w < full_words; ++w) {
    uint64_t word = words[w];
    float* o = out + w * 64;
    for (size_t b = 0; b < 64; ++b) {
      o[b] = static_cast<float>((word >> b) & 1u);
    }
  }
  const size_t tail = num_bits & 63;
  if (tail != 0) {
    uint64_t word = words[full_words];
    float* o = out + full_words * 64;
    for (size_t b = 0; b < tail; ++b) {
      o[b] = static_cast<float>((word >> b) & 1u);
    }
  }
}

void ScalarAdd(float* dst, const float* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void ScalarAdam(float* w, float* m, float* v, const float* g, size_t n,
                const AdamStep& s) {
  const float b1 = s.beta1;
  const float b2 = s.beta2;
  for (size_t i = 0; i < n; ++i) {
    const float gi = g[i];
    m[i] = b1 * m[i] + (1.0f - b1) * gi;
    v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
    const float mhat = m[i] / s.correction1;
    const float vhat = v[i] / s.correction2;
    w[i] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
  }
}

void ScalarGemm(const float* a, const float* b, size_t m, size_t k,
                size_t n, float* c) {
  for (size_t i = 0; i < m; ++i, a += k, c += n) {
    for (size_t j = 0; j < n; ++j) c[j] = 0.0f;
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) c[j] += av * brow[j];
    }
  }
}

/// Byte-at-a-time table for the Castagnoli polynomial (reflected form
/// 0x82F63B78) — the scalar reference the hardware tiers must match.
struct Crc32cTable {
  uint32_t t[256];
  constexpr Crc32cTable() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
      }
      t[i] = c;
    }
  }
};
constexpr Crc32cTable kCrc32cTable;

uint32_t ScalarCrc32c(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t state = ~crc;
  for (size_t i = 0; i < n; ++i) {
    state = kCrc32cTable.t[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return ~state;
}

constexpr KernelOps kScalarOps = {
    ScalarPopcount,     ScalarHamming,         ScalarDiff,
    ScalarBitsToFloats, ScalarAdd,             ScalarAdam,
    ScalarGemm,         internal::LibmSigmoid, internal::LibmLog,
    ScalarCrc32c,
};

// ----------------------------------------------------- dispatch --

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define E2NVM_X86_CPUID 1
#endif

bool CpuHasFma() {
#if defined(E2NVM_X86_CPUID) && defined(E2NVM_HAVE_FMA)
  __builtin_cpu_init();
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// The SIMD tiers run the expf/logf port, the AVX2 tier from
// kernels_fma.cc, so both need FMA too (every AVX2 and AVX-512 CPU has
// it): then every tier runs the port wherever the scalar tier does.
bool CpuHasAvx2() {
#ifdef E2NVM_X86_CPUID
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && CpuHasFma();
#else
  return false;
#endif
}

/// kScalarOps, with the expf/logf port compiled with -mfma
/// (kernels_fma.cc) as sigmoid_f32 and log_f32 on a CPU that reports
/// FMA: glibc's own expf and logf bits there (kernels.h), each fused
/// step one instruction.
const KernelOps& ScalarOps() {
  static const KernelOps ops = [] {
    KernelOps o = kScalarOps;
#ifdef E2NVM_HAVE_FMA
    if (CpuHasFma()) {
      o.sigmoid_f32 = internal::FmaSigmoid;
      o.log_f32 = internal::FmaLog;
    }
#endif
    return o;
  }();
  return ops;
}

bool CpuHasAvx512() {
#ifdef E2NVM_X86_CPUID
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vpopcntdq") && CpuHasFma();
#else
  return false;
#endif
}

/// Best tier both compiled in and supported by this CPU.
SimdLevel DetectBest() {
  SimdLevel best = SimdLevel::kScalar;
#ifdef E2NVM_HAVE_AVX2
  if (CpuHasAvx2()) best = SimdLevel::kAvx2;
#endif
#ifdef E2NVM_HAVE_AVX512
  if (CpuHasAvx512()) best = SimdLevel::kAvx512;
#endif
  return best;
}

/// Applies the E2NVM_SIMD override: the requested tier, clamped to what
/// the build + CPU can actually deliver (never *above* `best`).
SimdLevel ApplyOverride(const char* env, SimdLevel best) {
  if (env == nullptr || *env == '\0') return best;
  SimdLevel req;
  if (std::strcmp(env, "scalar") == 0) {
    req = SimdLevel::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    req = SimdLevel::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    req = SimdLevel::kAvx512;
  } else {
    E2_LOG(kWarning,
           "unknown E2NVM_SIMD value '%s' (want scalar|avx2|avx512); "
           "using autodetected tier",
           env);
    return best;
  }
  return req < best ? req : best;
}

struct Dispatch {
  SimdLevel level;
  const KernelOps* ops;
};

const Dispatch& GetDispatch() {
  static const Dispatch d = [] {
    SimdLevel level =
        ApplyOverride(std::getenv("E2NVM_SIMD"), DetectBest());
    const KernelOps* ops = OpsFor(level);
    return Dispatch{level, ops != nullptr ? ops : &ScalarOps()};
  }();
  return d;
}

}  // namespace

const KernelOps& Ops() { return *GetDispatch().ops; }

SimdLevel ActiveSimdLevel() { return GetDispatch().level; }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const KernelOps* OpsFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &ScalarOps();
    case SimdLevel::kAvx2:
#ifdef E2NVM_HAVE_AVX2
      if (CpuHasAvx2()) return internal::Avx2Ops();
#endif
      return nullptr;
    case SimdLevel::kAvx512:
#ifdef E2NVM_HAVE_AVX512
      if (CpuHasAvx512()) return internal::Avx512Ops();
#endif
      return nullptr;
  }
  return nullptr;
}

}  // namespace e2nvm
