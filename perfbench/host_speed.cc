#include "host_speed.h"

#include <bit>
#include <chrono>

namespace e2bench {
namespace {

constexpr size_t kStreamFloats = size_t{2} << 20;  // 8 MiB.
constexpr size_t kDotFloats = size_t{512} << 10;   // Per operand per round.
constexpr size_t kBlockWords = size_t{512} << 10;  // 4 MiB.
constexpr size_t kWordsPerBlock = 32;              // 256 bytes.
constexpr size_t kBlocksPerRound = 2500;
constexpr size_t kLanes = 16;  // Independent accumulators: vectorizable.

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

}  // namespace

HostCalibration::HostCalibration()
    : stream_(kStreamFloats), blocks_(kBlockWords) {
  for (size_t i = 0; i < stream_.size(); ++i) {
    stream_[i] = static_cast<float>(i % 89) * 0.01f;
  }
  for (size_t i = 0; i < blocks_.size(); ++i) {
    blocks_[i] = i * 0x9E3779B97F4A7C15ull;
  }
}

double HostCalibration::Round() {
  // Untimed: one read per cache line of both buffers, so the timed part
  // starts from the same cache state whatever the store left behind; what
  // is left to vary is how fast the shared cache and memory serve it.
  float warm = 0;
  for (size_t i = 0; i < stream_.size(); i += 64 / sizeof(float)) {
    warm += stream_[i];
  }
  uint64_t warm_bits = 0;
  for (size_t i = 0; i < blocks_.size(); i += 64 / sizeof(uint64_t)) {
    warm_bits += blocks_[i];
  }
  checksum_ ^= warm_bits ^ std::bit_cast<uint32_t>(warm);

  const auto start = std::chrono::steady_clock::now();
  ++rounds_;

  // Two operands half the buffer apart, at a base that moves one operand
  // per round: two rounds read all 8 MiB, more than L2 holds.
  const size_t mask = stream_.size() - 1;
  const size_t base = rounds_ * kDotFloats;
  const size_t other = base + stream_.size() / 2;
  float acc[kLanes] = {};
  for (size_t i = 0; i < kDotFloats; i += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) {
      acc[k] += stream_[(base + i + k) & mask] * stream_[(other + i + k) & mask];
    }
  }
  float dot = 0;
  for (float a : acc) dot += a;

  uint64_t z = rounds_, bits = 0;
  for (size_t b = 0; b < kBlocksPerRound; ++b) {
    z = Lcg(z);
    const size_t first = (z >> 20) % (blocks_.size() / kWordsPerBlock) *
                         kWordsPerBlock;
    for (size_t w = first; w < first + kWordsPerBlock; ++w) {
      bits += static_cast<uint64_t>(__builtin_popcountll(blocks_[w] ^ z));
      blocks_[w] ^= bits;
    }
  }

  checksum_ = Lcg(checksum_ ^ std::bit_cast<uint32_t>(dot)) ^ bits;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

size_t HostCalibration::resident_bytes() const {
  return stream_.size() * sizeof(float) + blocks_.size() * sizeof(uint64_t);
}

}  // namespace e2bench
