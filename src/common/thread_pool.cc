#include "common/thread_pool.h"

#include <algorithm>

#include "common/lock_audit.h"

namespace e2nvm {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(num_threads, 1);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    // The queue mutex is shared by every pool client: submitting from a
    // steady-state shard operation would be a cross-shard serialization
    // point, so the acquisition is booked with the lock audit.
    debug::AuditedLockGuard lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace e2nvm
