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

BackgroundRetrainer::Result BackgroundRetrainer::Train(
    std::unique_ptr<placement::ContentClusterer> untrained,
    ml::Matrix contents, std::vector<uint64_t> addrs) {
  Result update;
  update.addrs = std::move(addrs);
  update.status = untrained->Train(contents);
  if (!update.status.ok()) return update;
  update.train_flops = untrained->LastTrainFlops();
  // Classify the snapshot in one call; the local scratch takes the
  // contents by move, so nothing region-sized outlives it.
  ml::InferenceScratch scratch;
  scratch.in = std::move(contents);
  untrained->AssignScratch(&scratch);
  update.clusters = std::move(scratch.clusters);
  // A running sum, one prediction per row: the same double the engine
  // would charge for n single predictions.
  for (size_t i = 0; i < update.clusters.size(); ++i) {
    update.predict_flops += untrained->PredictFlops();
  }
  update.model = std::move(untrained);
  return update;
}

bool BackgroundRetrainer::Start(
    std::unique_ptr<placement::ContentClusterer> shadow,
    ml::Matrix contents, std::vector<uint64_t> addrs) {
  if (running() || ready()) return false;
  if (worker_.joinable()) worker_.join();  // Reap the previous worker.
  running_.store(true, std::memory_order_release);

  // The worker owns the snapshot until the ready_ release; the foreground
  // only reads result_ after the matching acquire. Pool tasks are
  // copyable std::functions, so the move-only snapshot is parked in a
  // shared_ptr that the (single) execution steals from.
  struct Snapshot {
    std::unique_ptr<placement::ContentClusterer> shadow;
    ml::Matrix contents;
    std::vector<uint64_t> addrs;
  };
  auto snapshot = std::make_shared<Snapshot>(
      Snapshot{std::move(shadow), std::move(contents), std::move(addrs)});
  auto job = [this, snapshot] {
    result_ = Train(std::move(snapshot->shadow),
                    std::move(snapshot->contents),
                    std::move(snapshot->addrs));
    ready_.store(true, std::memory_order_release);
    running_.store(false, std::memory_order_release);
  };
  if (pool_ != nullptr) {
    pool_->Submit(job);
  } else {
    worker_ = std::thread(job);
  }
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
