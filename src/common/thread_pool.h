#ifndef E2NVM_COMMON_THREAD_POOL_H_
#define E2NVM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace e2nvm {

/// A fixed-size worker pool with one shared FIFO job queue: no work
/// stealing, no fork-join. A ShardedStore gives each shard one as its
/// lane, which runs that shard's background (shadow) trainings and, on
/// lane 0, the integrity scrubber (DESIGN.md §13). ML kernels never run
/// here: each runs on the thread that calls it (DESIGN.md §8).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains and joins. Pending tasks are completed before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues one task. The task must not block on other pool tasks
  /// unless more workers exist than blockers.
  void Submit(std::function<void()> task);

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
