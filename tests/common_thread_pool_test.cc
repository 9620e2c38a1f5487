#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace ensemfdet {
namespace {

TEST(ThreadPoolTest, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
}

TEST(ThreadPoolTest, ZeroThreadsFallsBackToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, SubmitVoidTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto fut = pool.Submit([&counter] { counter.fetch_add(1); });
  fut.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, SubmitExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.Submit([]() -> int { throw std::runtime_error("bad"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(done.load(), 64);
}

TEST(DefaultThreadPoolTest, IsSingletonWithThreads) {
  ThreadPool& a = DefaultThreadPool();
  ThreadPool& b = DefaultThreadPool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1);
}

}  // namespace
}  // namespace ensemfdet
