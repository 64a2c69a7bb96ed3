#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
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

TEST(ThreadPoolTest, NestedParallelForBlocksRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelForBlocks(0, 8, 1, [&](size_t, size_t) {
    // A nested loop from a worker must complete without deadlocking.
    pool.ParallelForBlocks(0, 16, 1,
                           [&](size_t, size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
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
