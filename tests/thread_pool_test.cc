#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace e2nvm {
namespace {

TEST(ThreadPoolTest, ParallelForBlocksCoverRangeExactly) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(997);  // Prime: uneven tail block.
  pool.ParallelForBlocks(0, 997, 64, [&](size_t lo, size_t hi) {
    EXPECT_EQ(lo % 64, 0u);
    EXPECT_EQ(hi, std::min<size_t>(lo + 64, 997));
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroGrainIsOneAndEmptyRangesRunNothing) {
  ThreadPool pool(2);
  std::atomic<int> blocks{0};
  pool.ParallelForBlocks(0, 100, 0, [&](size_t lo, size_t hi) {
    EXPECT_EQ(hi - lo, 1u);
    blocks.fetch_add(1);
  });
  EXPECT_EQ(blocks.load(), 100);
  pool.ParallelForBlocks(5, 5, 8, [&](size_t, size_t) { blocks.fetch_add(1); });
  EXPECT_EQ(blocks.load(), 100);
}

TEST(ThreadPoolTest, BlocksAreIdenticalForAnyPoolSize) {
  // The block bounds are a function of the range and the grain alone.
  auto run = [](size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> blocks;
    pool.ParallelForBlocks(5, 10000, 128, [&](size_t lo, size_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      blocks.emplace_back(lo, hi);
    });
    std::sort(blocks.begin(), blocks.end());
    return blocks;
  };
  const auto b1 = run(1);
  EXPECT_EQ(b1.size(), 79u);  // ceil(9995 / 128).
  EXPECT_EQ(b1, run(2));
  EXPECT_EQ(b1, run(4));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelForBlocks(0, 100, 1,
                                      [](size_t lo, size_t) {
                                        if (lo == 37) {
                                          throw std::runtime_error("boom 37");
                                        }
                                      }),
               std::runtime_error);
}

TEST(ThreadPoolTest, FirstExceptionByBlockIndexWins) {
  ThreadPool pool(4);
  try {
    pool.ParallelForBlocks(0, 100, 10, [](size_t lo, size_t) {
      throw std::runtime_error(std::to_string(lo));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ThreadPoolTest, NestedParallelForBlocksCompletes) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelForBlocks(0, 8, 1, [&](size_t, size_t) {
    // A nested loop from a worker must complete without deadlocking.
    pool.ParallelForBlocks(0, 16, 1,
                           [&](size_t, size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, LoopFromAWorkerSpreadsOverIdleWorkers) {
  // A training on a shard's lane issues its kernels' loops from a lane
  // worker: they must reach the lane's idle workers, not run inline.
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> ids;
  std::promise<size_t> seen;
  ThreadPool pool(4);  // Joined before the state its task uses goes.
  pool.Submit([&] {
    pool.ParallelForBlocks(0, 2, 1, [&](size_t, size_t) {
      // Each block waits, with a bound, until a second thread ran one.
      std::unique_lock<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(5),
                  [&] { return ids.size() >= 2; });
    });
    std::lock_guard<std::mutex> lock(mu);
    seen.set_value(ids.size());
  });
  EXPECT_EQ(seen.get_future().get(), 2u);
}

TEST(ThreadPoolTest, EveryWorkerIssuingANestedLoopAtOnceCompletes) {
  // All four workers block in a nested loop together, so no worker is
  // free to take the runners they queue: each caller must run its own
  // blocks. A watchdog turns a deadlock into a failure.
  constexpr size_t kThreads = 4;
  constexpr size_t kBlocks = 64;
  std::atomic<size_t> arrived{0};
  std::atomic<size_t> total{0};
  std::atomic<size_t> finished{0};
  std::promise<void> all_done;
  ThreadPool pool(kThreads);  // Joined before the state above goes.
  for (size_t t = 0; t < kThreads; ++t) {
    pool.Submit([&] {
      // Start the nested loops together (bounded, so a pool that never
      // runs four tasks at once still gets to the checks).
      arrived.fetch_add(1);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (arrived.load() < kThreads &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      pool.ParallelForBlocks(0, kBlocks, 1,
                             [&](size_t lo, size_t hi) {
                               total.fetch_add(hi - lo);
                             });
      if (finished.fetch_add(1) + 1 == kThreads) all_done.set_value();
    });
  }
  std::future<void> done = all_done.get_future();
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    // The pool cannot be joined with its workers stuck: stop here.
    std::fprintf(stderr, "nested loops deadlocked: %zu of %zu finished\n",
                 finished.load(), kThreads);
    std::abort();
  }
  EXPECT_EQ(arrived.load(), kThreads);
  EXPECT_EQ(total.load(), kThreads * kBlocks);
}

TEST(ThreadPoolTest, SubmittedTasksRunBeforeShutdown) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor must drain the queue, not drop it.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentLoopsFromManyThreads) {
  ThreadPool pool(4);
  std::vector<std::thread> callers;
  std::atomic<size_t> grand{0};
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 10; ++rep) {
        std::atomic<size_t> local{0};
        pool.ParallelForBlocks(0, 500, 16, [&](size_t lo, size_t hi) {
          local.fetch_add(hi - lo);
        });
        grand.fetch_add(local.load());
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(grand.load(), 4u * 10u * 500u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsSeriallyInCallerOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelForBlocks(0, 50, 8, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) order.push_back(i);
  });
  std::vector<size_t> expect(50);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

}  // namespace
}  // namespace e2nvm
