#ifndef E2NVM_CORE_RETRAIN_H_
#define E2NVM_CORE_RETRAIN_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/address_pool.h"

namespace e2nvm::core {

/// What the policy wants done about the model right now (the escalating
/// drift detector of DESIGN.md §16).
enum class RetrainAction {
  kNone,
  /// Run one cheap inline PartialFit refinement step on the replay ring.
  kRefine,
  /// Rebuild model + DAP from scratch (the pre-incremental behavior).
  kFullRetrain,
};

/// Decides *when* to rebuild the model and DAP (§4.1.4 and §5.3):
///
///  1. capacity trigger — some cluster's free list fell below a minimum
///     threshold, so the pool is at risk of failing to serve its cluster
///     ("we set a minimum threshold ... and trigger the re-training
///     process in the background when one of the clusters reaches it");
///  2. efficiency trigger — the recent flips-per-bit ratio degraded past
///     `degradation_factor` times the ratio observed right after the last
///     (re)training, meaning the model no longer reflects memory content
///     (the Fig 17 scenario-3/4 situation).
///
/// Decide() is the one decision. With refinement off (the default)
/// either trigger answers kFullRetrain and nothing else does. With
/// refinement enabled (the constructor's `refine_enabled`), it runs the
/// two triggers through an escalation state machine: the efficiency
/// trigger first answers with kRefine (one cheap mini-batch refinement
/// every `refine_interval` writes), and only escalates to kFullRetrain
/// after `max_refine_rounds` consecutive refinements fail to pull the
/// window ratio back under kRecoveryFactor x baseline. The capacity
/// trigger always escalates straight to a full retrain — refinement
/// never rebuilds the DAP, so it cannot fix a starving cluster.
class RetrainPolicy {
 public:
  /// Degradation counts as recovered — resetting the escalation counter
  /// — once the window ratio falls back under kRecoveryFactor *
  /// baseline. Keep degradation_factor >= it so recovery is reachable.
  static constexpr double kRecoveryFactor = 1.2;

  struct Config {
    size_t min_free_per_cluster = 2;
    /// Writes in the moving window used to estimate current efficiency.
    size_t window = 256;
    /// Trigger when current ratio > factor * post-train baseline.
    double degradation_factor = 1.6;
    /// Writes to collect after a retrain before freezing the baseline.
    size_t baseline_writes = 128;

    /// --- Incremental refinement (DESIGN.md §16), read only by a policy
    /// built with refinement enabled. ---
    /// Minimum writes between two refinement steps while degraded (lets
    /// each step's effect reach the moving window before the next).
    size_t refine_interval = 64;
    /// Consecutive refinement steps without recovery before the
    /// degradation escalates to a full retrain.
    size_t max_refine_rounds = 8;
  };

  /// `refine_enabled` turns the escalation state machine on; a
  /// PlacementEngine passes `incremental.enabled` and its clusterer's
  /// SupportsPartialFit(), so a clusterer that cannot refine falls back
  /// to full retrains.
  explicit RetrainPolicy(const Config& config, bool refine_enabled = false)
      : config_(config), refine_enabled_(refine_enabled) {}

  /// Records the outcome of one placed write.
  void RecordWrite(size_t bits_flipped, size_t bits_written);

  /// Marks a completed (re)training; resets the baseline and the
  /// refinement escalation state.
  void OnRetrain();

  /// Records a completed refinement step (advances the escalation
  /// counter and restarts the refine interval).
  void OnRefine();

  /// The capacity trigger alone: some cluster's free list is below
  /// min_free_per_cluster. Whenever it holds, Decide() answers
  /// kFullRetrain.
  bool CapacityTriggered(const DynamicAddressPool& pool) const {
    return pool.MinClusterFree() < config_.min_free_per_cluster;
  }

  /// What to do after this write: the capacity trigger, then the
  /// efficiency trigger through the escalating drift detector (see the
  /// class comment); never kRefine with refinement off. Non-const:
  /// observing a recovered window resets the escalation counter.
  RetrainAction Decide(const DynamicAddressPool& pool);

  /// Current moving-window flips-per-bit (diagnostics).
  double CurrentRatio() const;
  double BaselineRatio() const { return baseline_ratio_; }
  /// Consecutive refinement steps in the current degradation episode.
  size_t refine_rounds() const { return refine_rounds_; }
  const Config& config() const { return config_; }
  bool refine_enabled() const { return refine_enabled_; }

 private:
  size_t WindowSize() const { return window_count_; }

  Config config_;
  bool refine_enabled_;
  // Fixed-capacity ring over the last `config_.window` writes of
  // (flips, bits): RecordWrite runs on every placement, so the window
  // must not churn heap blocks the way a deque does.
  std::vector<std::pair<size_t, size_t>> window_;
  size_t window_head_ = 0;
  size_t window_count_ = 0;
  size_t window_flips_ = 0;
  size_t window_bits_ = 0;
  size_t writes_since_retrain_ = 0;
  double baseline_ratio_ = -1.0;  // <0 means not yet frozen.
  // Escalation state of the drift detector (refinement enabled).
  size_t refine_rounds_ = 0;
  size_t writes_since_refine_ = 0;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_RETRAIN_H_
