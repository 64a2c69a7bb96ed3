#ifndef E2NVM_COMMON_THREAD_POOL_H_
#define E2NVM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace e2nvm {

/// A fixed-size worker pool with a fork-join block loop — the
/// concurrency substrate behind the parallel ML kernels and the
/// background retrainer.
///
/// Design constraints (DESIGN.md §8):
///  - no work stealing, one shared FIFO queue: the kernels submit coarse
///    index blocks, so queue contention is negligible and scheduling stays
///    easy to reason about;
///  - ParallelForBlocks splits an index range into blocks whose bounds
///    depend only on the range and the grain, never on the thread count;
///    the kernels give each block only per-index results to compute and
///    sum them on the calling thread afterwards, so which pool runs them
///    (or none) never changes a bit;
///  - exceptions thrown by loop bodies are captured and the *first* one
///    (lowest block) is rethrown on the calling thread;
///  - the caller claims blocks too and waits only for blocks a running
///    thread claimed, so a loop issued from a worker (a training on a
///    shard's lane) spreads over the workers that are idle and never
///    waits on a queued task.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 is clamped to 1; a 1-thread pool is
  /// still useful (the background retrainer runs on it), but its
  /// ParallelForBlocks runs every block on the caller.
  explicit ThreadPool(size_t num_threads);

  /// Drains and joins. Pending tasks are completed before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues one task. The task must not block on other pool tasks
  /// unless more workers exist than blockers (use ParallelForBlocks for
  /// fork-join work instead).
  void Submit(std::function<void()> task);

  /// Runs body(lo, hi) for every `grain`-sized block [lo, hi) of [begin,
  /// end) (the last one may be shorter; a grain of 0 is 1), spread
  /// across the pool. Blocks until all blocks finish (the caller runs
  /// blocks too) and rethrows the first exception thrown by any block.
  /// The blocks are a pure function of (begin, end, grain), never of
  /// num_threads(). Callable from any thread, this pool's workers
  /// included: a worker's loop runs on itself and whichever workers
  /// are free.
  void ParallelForBlocks(size_t begin, size_t end, size_t grain,
                         const std::function<void(size_t, size_t)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace e2nvm

#endif  // E2NVM_COMMON_THREAD_POOL_H_
