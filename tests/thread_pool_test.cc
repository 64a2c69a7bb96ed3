#include "common/thread_pool.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace e2nvm {
namespace {

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

TEST(ThreadPoolTest, ConcurrentSubmitsFromManyThreadsAllRun) {
  // Shards submit to their lanes from client threads, and the scrubber
  // requeues itself from a worker: the queue takes both at once.
  std::atomic<size_t> ran{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&] {
        for (int i = 0; i < 100; ++i) {
          pool.Submit([&] {
            ran.fetch_add(1);
            pool.Submit([&ran] { ran.fetch_add(1); });
          });
        }
      });
    }
    for (auto& c : callers) c.join();
  }
  EXPECT_EQ(ran.load(), 4u * 100u * 2u);
}

}  // namespace
}  // namespace e2nvm
