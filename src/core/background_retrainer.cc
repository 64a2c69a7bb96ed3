#include "core/background_retrainer.h"

#include <utility>

#include "ml/inference.h"

namespace e2nvm::core {

BackgroundRetrainer::~BackgroundRetrainer() {
  if (worker_.joinable()) worker_.join();
  // Pool mode: the submitted task captures `this`; wait until it has
  // published (running_ release pairs with this acquire, so result_ and
  // the flags are fully written before we destruct).
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void BackgroundRetrainer::TrainAndPublish(
    std::unique_ptr<placement::ContentClusterer> shadow,
    ml::Matrix contents) {
  result_.status = shadow->Train(contents);
  if (result_.status.ok()) {
    result_.train_flops = shadow->LastTrainFlops();
    // Classify the snapshot in one call; the local scratch takes the
    // contents by move, so nothing region-sized outlives it.
    const size_t n = contents.rows();
    ml::InferenceScratch scratch;
    scratch.in = std::move(contents);
    shadow->AssignScratch(&scratch);
    result_.clusters = std::move(scratch.clusters);
    // A running sum, one prediction per row: the same double the engine
    // would charge for n single predictions.
    for (size_t i = 0; i < n; ++i) {
      result_.predict_flops += shadow->PredictFlops();
    }
    result_.model = std::move(shadow);
  }
  generations_.fetch_add(1, std::memory_order_acq_rel);
  ready_.store(true, std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

bool BackgroundRetrainer::Start(
    std::unique_ptr<placement::ContentClusterer> shadow,
    ml::Matrix contents, std::vector<uint64_t> addrs) {
  if (running() || ready()) return false;
  if (worker_.joinable()) worker_.join();  // Reap the previous worker.

  result_ = Result{};
  result_.addrs = std::move(addrs);
  running_.store(true, std::memory_order_release);

  // The worker owns the shadow and the snapshot until the ready_ release;
  // the foreground only reads result_ after the matching acquire.
  if (pool_ != nullptr) {
    // Submit takes a copyable std::function; park the move-only payload
    // in a shared_ptr the (single) execution steals from.
    auto job = std::make_shared<
        std::pair<std::unique_ptr<placement::ContentClusterer>, ml::Matrix>>(
        std::move(shadow), std::move(contents));
    pool_->Submit([this, job] {
      TrainAndPublish(std::move(job->first), std::move(job->second));
    });
    return true;
  }
  worker_ = std::thread(
      [this, shadow = std::move(shadow),
       contents = std::move(contents)]() mutable {
        TrainAndPublish(std::move(shadow), std::move(contents));
      });
  return true;
}

std::optional<BackgroundRetrainer::Result> BackgroundRetrainer::TryCollect() {
  if (!ready()) return std::nullopt;
  if (worker_.joinable()) worker_.join();
  Result r = std::move(result_);
  result_ = Result{};
  ready_.store(false, std::memory_order_release);
  return r;
}

}  // namespace e2nvm::core
