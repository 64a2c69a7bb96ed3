#include "core/background_retrainer.h"

#include <algorithm>
#include <utility>

#include "ml/inference.h"
#include "ml/matrix.h"

namespace e2nvm::core {

namespace {

/// Rows per AssignScratch call when a model classifies a snapshot
/// itself: a training batch's worth of floats at a time. Rows are
/// independent, so the chunking changes no id.
constexpr size_t kClassifyChunkRows = 64;

/// The cluster `model` assigns each row of `rows`, appended to `out`.
void ClassifyRows(const placement::ContentClusterer& model,
                  const ml::BitMatrix& rows, std::vector<size_t>* out) {
  ml::InferenceScratch scratch;
  out->clear();
  out->reserve(rows.rows());
  for (size_t start = 0; start < rows.rows(); start += kClassifyChunkRows) {
    const size_t len = std::min(kClassifyChunkRows, rows.rows() - start);
    scratch.in.EnsureShape(len, rows.cols());
    for (size_t i = 0; i < len; ++i) {
      rows.RowToFloats(start + i, scratch.in.Row(i));
    }
    model.AssignScratch(&scratch);
    out->insert(out->end(), scratch.clusters.begin(), scratch.clusters.end());
  }
}

}  // namespace

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
    ml::BitMatrix contents, std::vector<uint64_t> addrs) {
  Result update;
  update.addrs = std::move(addrs);
  update.status = untrained->Train(contents);
  if (!update.status.ok()) return update;
  update.train_flops = untrained->LastTrainFlops();
  if (!untrained->TakeTrainClusters(&update.clusters)) {
    ClassifyRows(*untrained, contents, &update.clusters);
  }
  contents = ml::BitMatrix();
  // Charged as a classification either way. A running sum, one
  // prediction per row: the same double the engine would charge for n
  // single predictions.
  for (size_t i = 0; i < update.clusters.size(); ++i) {
    update.predict_flops += untrained->PredictFlops();
  }
  update.model = std::move(untrained);
  return update;
}

bool BackgroundRetrainer::Start(
    std::unique_ptr<placement::ContentClusterer> shadow,
    ml::BitMatrix contents, std::vector<uint64_t> addrs) {
  if (running() || ready()) return false;
  if (worker_.joinable()) worker_.join();  // Reap the previous worker.
  running_.store(true, std::memory_order_release);

  // The worker owns the snapshot until the ready_ release; the foreground
  // only reads result_ after the matching acquire. Pool tasks are
  // copyable std::functions, so the move-only snapshot is parked in a
  // shared_ptr that the (single) execution steals from.
  struct Snapshot {
    std::unique_ptr<placement::ContentClusterer> shadow;
    ml::BitMatrix contents;
    std::vector<uint64_t> addrs;
  };
  auto snapshot = std::make_shared<Snapshot>(
      Snapshot{std::move(shadow), std::move(contents), std::move(addrs)});
  // The shadow's kernels run on the pool a synchronous retrain launched
  // from here would use.
  auto job = [this, snapshot, kernels = ml::compute_pool()] {
    ml::ScopedComputePool pin(kernels);
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
