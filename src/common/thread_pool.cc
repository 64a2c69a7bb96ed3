#include "common/thread_pool.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>

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

namespace {

/// Shared fork-join state for one ParallelForBlocks call. Runners and the
/// caller claim block indices from `next`; the caller waits until every
/// claimed block has been finished (or abandoned after an exception). A
/// runner that starts after the caller claimed the last block finds
/// none left and returns without touching `body`.
struct ForState {
  size_t begin, end, grain, blocks;
  const std::function<void(size_t, size_t)>* body;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr first_ex;
  size_t first_ex_block = SIZE_MAX;

  void RunBlocks() {
    for (;;) {
      size_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) return;
      size_t lo = begin + b * grain;
      size_t hi = std::min(lo + grain, end);
      try {
        (*body)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (b < first_ex_block) {
          first_ex_block = b;
          first_ex = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == blocks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::ParallelForBlocks(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t)>& body) {
  if (end <= begin) return;
  grain = std::max<size_t>(grain, 1);
  const size_t blocks = (end - begin + grain - 1) / grain;

  // Serial fast path: tiny range or single-thread pool.
  if (blocks <= 1 || threads_.size() <= 1) {
    for (size_t b = 0; b < blocks; ++b) {
      size_t lo = begin + b * grain;
      size_t hi = std::min(lo + grain, end);
      body(lo, hi);
    }
    return;
  }

  auto state = std::make_shared<ForState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->blocks = blocks;
  state->body = &body;

  // One runner per worker (capped by the block count); the caller also
  // claims blocks, so the pool being busy never stalls the loop: the
  // caller's wait covers only blocks a running thread claimed. That
  // holds on a worker too, where the runners go to the others.
  size_t runners = std::min(threads_.size(), blocks - 1);
  for (size_t i = 0; i < runners; ++i) {
    Submit([state] { state->RunBlocks(); });
  }
  state->RunBlocks();

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->blocks;
  });
  if (state->first_ex) std::rethrow_exception(state->first_ex);
}

}  // namespace e2nvm
