#include "core/retrain.h"

#include <algorithm>

namespace e2nvm::core {

void RetrainPolicy::RecordWrite(size_t bits_flipped, size_t bits_written) {
  if (config_.window > 0) {
    if (window_.empty()) window_.resize(config_.window);
    if (window_count_ == config_.window) {
      // Full: the oldest write slides out of the moving window.
      auto [f, b] = window_[window_head_];
      window_flips_ -= f;
      window_bits_ -= b;
      window_head_ = (window_head_ + 1) % config_.window;
      --window_count_;
    }
    window_[(window_head_ + window_count_) % config_.window] = {
        bits_flipped, bits_written};
    ++window_count_;
    window_flips_ += bits_flipped;
    window_bits_ += bits_written;
  }
  ++writes_since_retrain_;
  ++writes_since_refine_;
  if (baseline_ratio_ < 0 &&
      writes_since_retrain_ >= config_.baseline_writes &&
      window_bits_ > 0) {
    baseline_ratio_ = CurrentRatio();
  }
}

void RetrainPolicy::OnRetrain() {
  writes_since_retrain_ = 0;
  baseline_ratio_ = -1.0;
  window_head_ = 0;
  window_count_ = 0;  // The ring's capacity is kept.
  window_flips_ = 0;
  window_bits_ = 0;
  refine_rounds_ = 0;
  writes_since_refine_ = 0;
}

void RetrainPolicy::OnRefine() {
  ++refine_rounds_;
  writes_since_refine_ = 0;
}

double RetrainPolicy::CurrentRatio() const {
  if (window_bits_ == 0) return 0.0;
  return static_cast<double>(window_flips_) /
         static_cast<double>(window_bits_);
}

RetrainAction RetrainPolicy::Decide(const DynamicAddressPool& pool) {
  // Capacity trigger: the pool's shape is at risk, and refinement never
  // rebuilds the DAP, so escalate straight to a full retrain.
  if (CapacityTriggered(pool)) {
    return RetrainAction::kFullRetrain;
  }
  if (baseline_ratio_ < 0 || WindowSize() < config_.window) {
    return RetrainAction::kNone;  // Still collecting the baseline/window.
  }
  // A perfect (zero-flip) baseline would make any degradation infinite;
  // floor it so the trigger compares against a meaningful reference.
  constexpr double kBaselineFloor = 0.01;
  const double ref = std::max(baseline_ratio_, kBaselineFloor);
  const double current = CurrentRatio();
  if (current > config_.degradation_factor * ref) {
    if (!refine_enabled_ || refine_rounds_ >= config_.max_refine_rounds) {
      // Nothing refines, or refinement is not pulling efficiency back.
      return RetrainAction::kFullRetrain;
    }
    if (writes_since_refine_ >= config_.refine_interval) {
      return RetrainAction::kRefine;
    }
    return RetrainAction::kNone;  // Let the last step reach the window.
  }
  if (refine_rounds_ > 0 && current <= kRecoveryFactor * ref) {
    refine_rounds_ = 0;  // Recovered: the drift was handled by refining.
  }
  return RetrainAction::kNone;
}

}  // namespace e2nvm::core
