#ifndef E2NVM_PERFBENCH_HOST_SPEED_H_
#define E2NVM_PERFBENCH_HOST_SPEED_H_

// A fixed reference kernel the timed loops run between chunks, so a run
// can tell how fast the host was while it measured. On a shared VM the
// same binary speeds up and slows down by a quarter over seconds to
// minutes; the store's timings and this kernel's move together, so their
// ratio holds still where neither does (README.md, "Host speed").

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2bench {

class HostCalibration {
 public:
  /// Round time, in µs, of the reference host: end-to-end timings are
  /// reported as if every calibration round of the run had taken this
  /// long (about a round's time on the 4-vCPU VM the benchmark was sized
  /// on, at its fast end).
  static constexpr double kReferenceRoundUs = 1200.0;

  /// Allocates and touches the kernel's buffers (12 MiB, resident for the
  /// object's life).
  HostCalibration();

  /// Runs one round and returns the wall time of its timed part in
  /// seconds. A round first reads every cache line of its buffers
  /// (untimed), then streams a float dot product over 4 MiB of the 8 MiB
  /// one (more than L2 holds, like kv_ycsb_a's encoders and cells) and
  /// read-modify-writes random 256-byte blocks of the 4 MiB one with
  /// popcounts (like the device's cell updates). The work is the same
  /// every round, on every host.
  double Round();

  /// Bytes the buffers keep resident: the part of the process's peak RSS
  /// that is the benchmark's, not the store's.
  size_t resident_bytes() const;

  /// A digest of every round's results (the same on every host for the
  /// same number of rounds); keeps the compiler from dropping the work.
  uint64_t checksum() const { return checksum_; }

 private:
  std::vector<float> stream_;
  std::vector<uint64_t> blocks_;
  uint64_t rounds_ = 0;
  uint64_t checksum_ = 0;
};

}  // namespace e2bench

#endif  // E2NVM_PERFBENCH_HOST_SPEED_H_
