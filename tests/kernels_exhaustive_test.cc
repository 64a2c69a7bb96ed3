// Every one of the 2^32 floats through each SIMD tier's sigmoid_f32 and
// log_f32, bit for bit against the scalar port (kernels.h). kernels_test
// sweeps a strided sample and the edge cases on every unit run; this
// one covers the rest, on a few threads.
#include "common/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

namespace e2nvm {
namespace {

using ElementwiseKernel = void (*)(const float*, float*, size_t);

struct TierPair {
  const char* what;
  ElementwiseKernel want;
  ElementwiseKernel got;
};

TEST(KernelsExhaustiveTest, SigmoidAndLogMatchScalarOnEveryFloat) {
  const KernelOps& ref = *OpsFor(SimdLevel::kScalar);
  std::vector<TierPair> pairs;
  for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const KernelOps* ops = OpsFor(level);
    if (ops == nullptr) continue;
    // A tier that runs the scalar port itself has nothing to compare.
    if (ops->sigmoid_f32 != ref.sigmoid_f32) {
      pairs.push_back({"sigmoid", ref.sigmoid_f32, ops->sigmoid_f32});
    }
    if (ops->log_f32 != ref.log_f32) {
      pairs.push_back({"log", ref.log_f32, ops->log_f32});
    }
  }
  if (pairs.empty()) GTEST_SKIP() << "no SIMD tier with its own port";

  constexpr uint64_t kAll = uint64_t{1} << 32;
  constexpr size_t kChunk = 4096;
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint32_t> first_bad{0};
  auto sweep = [&](unsigned t) {
    std::vector<float> x(kChunk), want(kChunk), got(kChunk);
    for (uint64_t base = t * kChunk; base < kAll;
         base += uint64_t{threads} * kChunk) {
      for (size_t i = 0; i < kChunk; ++i) {
        x[i] = std::bit_cast<float>(static_cast<uint32_t>(base + i));
      }
      for (const TierPair& pair : pairs) {
        pair.want(x.data(), want.data(), kChunk);
        pair.got(x.data(), got.data(), kChunk);
        for (size_t i = 0; i < kChunk; ++i) {
          if (std::bit_cast<uint32_t>(got[i]) !=
              std::bit_cast<uint32_t>(want[i])) {
            if (mismatches.fetch_add(1) == 0) {
              first_bad = static_cast<uint32_t>(base + i);
            }
          }
        }
      }
    }
  };
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) workers.emplace_back(sweep, t);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "first mismatching input bits 0x" << std::hex << first_bad.load();
}

}  // namespace
}  // namespace e2nvm
