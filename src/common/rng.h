#ifndef E2NVM_COMMON_RNG_H_
#define E2NVM_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2nvm {

/// Deterministic pseudo-random generator (xoshiro256**), seeded via
/// SplitMix64. Every stochastic component in the library takes an explicit
/// Rng (or seed) so experiments are reproducible run-to-run.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with the same seed produce the
  /// same stream on every platform.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) { Reseed(seed); }

  /// Re-seeds in place.
  void Reseed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform integer in [0, bound). Requires bound > 0.
  uint64_t NextBounded(uint64_t bound) {
    assert(bound > 0);
    // Lemire's multiply-shift rejection-free approximation is fine here:
    // statistical quality requirements are modest.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(NextU64()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(NextDouble()); }

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  /// Bernoulli draw with probability `p` of true.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Equal generators produce equal streams from here on.
  bool operator==(const Rng&) const = default;

  /// Fisher-Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_gauss_ = false;
  double gauss_ = 0.0;
};

/// Zipfian key chooser over [0, n) with parameter theta (default 0.99, the
/// YCSB constant). Uses the Gray/YCSB rejection-free inverse method so a
/// draw is O(1). Hot items are the *smallest* ranks; callers that want
/// scattered hot keys should compose with a hash.
class ZipfianGenerator {
 public:
  /// Creates a generator over `n` items. `theta` in (0,1); YCSB uses 0.99.
  ZipfianGenerator(uint64_t n, double theta = 0.99);

  /// Draws a rank in [0, n); rank 0 is the most popular.
  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

/// "Latest" distribution per YCSB workload D: recency-weighted — newer items
/// (higher indexes) are more popular. Implemented as zipfian over the
/// distance from the most recent insert.
class LatestGenerator {
 public:
  explicit LatestGenerator(uint64_t n);

  /// Draws an item index in [0, max_seen]; skewed toward max_seen.
  uint64_t Next(Rng& rng, uint64_t max_seen);

 private:
  ZipfianGenerator zipf_;
};

/// Scrambled-zipfian: zipfian ranks spread over the key space by a
/// multiplicative hash, matching YCSB's ScrambledZipfianGenerator so hot
/// keys are not physically adjacent.
class ScrambledZipfianGenerator {
 public:
  ScrambledZipfianGenerator(uint64_t n, double theta = 0.99);

  uint64_t Next(Rng& rng);

 private:
  uint64_t n_;
  ZipfianGenerator zipf_;
};

/// FNV-1a 64-bit hash, used for key scrambling and fingerprints.
uint64_t Fnv1a64(const void* data, size_t len);

}  // namespace e2nvm

#endif  // E2NVM_COMMON_RNG_H_
