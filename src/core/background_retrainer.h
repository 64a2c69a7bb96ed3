#ifndef E2NVM_CORE_BACKGROUND_RETRAINER_H_
#define E2NVM_CORE_BACKGROUND_RETRAINER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "ml/bit_matrix.h"
#include "placement/clusterer.h"

namespace e2nvm::core {

/// Runs *full* model retraining off the write path (§4.1.4, §5.3: "the
/// re-training process happens in the background").
///
/// With incremental learning on (DESIGN.md §16,
/// PlacementEngine::Config::Incremental), most drift is absorbed by
/// inline replay-ring PartialFit refinement steps that never come
/// through here; this retrainer then only sees the escalations — the
/// capacity trigger and degradations that `max_refine_rounds`
/// refinement steps failed to recover. With incremental off (the
/// default) it carries every policy firing, exactly as before.
///
/// Protocol (all foreground calls come from the thread that owns the
/// PlacementEngine — typically the one serving Place/Release):
///   1. foreground snapshots the free segments' contents as packed rows
///      (PlacementEngine::SnapshotContents, a word copy per segment) and
///      calls Start() with a fresh shadow clusterer
///      (ContentClusterer::CloneUntrained);
///   2. a dedicated worker thread runs Train on the snapshot, the same
///      model update the engine's Bootstrap and synchronous Retrain run
///      inline, then publishes the Result;
///   3. the foreground polls ready() on its normal write path and claims
///      the Result with TryCollect(), and the engine adopts it.
///
/// The handoff is a single release/acquire pair on `ready_`; the worker
/// never touches the engine, the controller, or the live model, so
/// foreground traffic keeps serving from the old model at full speed
/// while training runs. Every ML kernel inside Train runs on the thread
/// that trains.
class BackgroundRetrainer {
 public:
  /// One model update: a freshly trained model and the cluster it gives
  /// each segment of the snapshot it trained on. Bootstrap, the
  /// synchronous Retrain and the shadow all build one with Train, and
  /// PlacementEngine installs every one the same way.
  struct Result {
    Status status = Status::Ok();
    /// The trained model (valid when status.ok()).
    std::unique_ptr<placement::ContentClusterer> model;
    /// Snapshot addresses and the model's cluster for each: adoption
    /// looks these up by address instead of predicting every free
    /// segment again.
    std::vector<uint64_t> addrs;
    std::vector<size_t> clusters;
    /// Model flops spent training / classifying the snapshot, charged
    /// by the engine that adopts the update.
    double train_flops = 0;
    double predict_flops = 0;
  };

  /// The one model update: trains `untrained` (a CloneUntrained) on
  /// `contents`, whose row i is the content of addrs[i], and takes each
  /// row's cluster from the training (ContentClusterer::
  /// TakeTrainClusters) or, for a model that keeps none, from
  /// AssignScratch a chunk of rows at a time. The contents are freed
  /// before it returns. Every ML kernel runs on the calling thread
  /// (DESIGN.md §8), so the update's bits do not depend on the thread
  /// that runs it.
  static Result Train(std::unique_ptr<placement::ContentClusterer> untrained,
                      ml::BitMatrix contents, std::vector<uint64_t> addrs);

  /// With no pool, every training runs on a dedicated std::thread (one
  /// store, one occasional trainer). With a pool, the training is one
  /// job submitted to it instead: a ShardedStore hands each shard's
  /// retrainer that shard's lane, so N shards queue trainings onto a
  /// bounded worker set rather than spawning N threads. Either way the
  /// whole training, every kernel included, runs on the one thread that
  /// picked it up, so the shadow has the bits of the same training run
  /// on the caller.
  explicit BackgroundRetrainer(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Joins (or, in pool mode, waits out) any in-flight training.
  ~BackgroundRetrainer();

  BackgroundRetrainer(const BackgroundRetrainer&) = delete;
  BackgroundRetrainer& operator=(const BackgroundRetrainer&) = delete;

  /// True while the worker is training (no new Start allowed).
  bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// True when a Result is waiting to be claimed.
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  /// Launches Train(shadow, contents, addrs) off the write path. Returns
  /// false — and takes no ownership — when a training is in flight or an
  /// unclaimed Result is pending.
  bool Start(std::unique_ptr<placement::ContentClusterer> shadow,
             ml::BitMatrix contents, std::vector<uint64_t> addrs);

  /// Claims the finished Result (joining the worker); nullopt when none
  /// is ready. Must be called from the foreground thread.
  std::optional<Result> TryCollect();

 private:
  ThreadPool* pool_ = nullptr;  // Borrowed; must outlive the retrainer.
  std::thread worker_;
  std::atomic<bool> running_{false};
  std::atomic<bool> ready_{false};
  Result result_;  // Written by the worker before the ready_ release.
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_BACKGROUND_RETRAINER_H_
