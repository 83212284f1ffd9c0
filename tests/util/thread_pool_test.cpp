#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fastz {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t i) {
        if (i == 5) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  // shutdown() is idempotent; a second call (and the destructor after it)
  // must be harmless.
  pool.shutdown();
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
    pool.shutdown();  // must wait for every queued task, not just running ones
    EXPECT_EQ(done.load(), 16);
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, ExceptionInOneChunkDoesNotDeadlockTheBarrier) {
  ThreadPool pool(4);
  // Every chunk throws: the barrier must still join all of them and rethrow
  // exactly one exception instead of deadlocking or tearing down `fn` while
  // chunks still run.
  std::atomic<int> entered{0};
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t) {
                                   entered.fetch_add(1);
                                   throw std::runtime_error("chunk failure");
                                 }),
               std::runtime_error);
  // One failure per chunk (first index of each), so between 1 and pool-size
  // entries ran.
  EXPECT_GE(entered.load(), 1);
  EXPECT_LE(entered.load(), 4);

  // The pool remains fully usable after the failed barrier.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ExceptionRethrownIsFromEarliestChunk) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(4, [](std::size_t i) {
      throw std::runtime_error("chunk " + std::to_string(i));
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "chunk 0");
  }
}

TEST(ThreadPool, SumIsDeterministic) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> out(100);
  pool.parallel_for(100, [&](std::size_t i) { out[i] = i * i; });
  const std::uint64_t sum = std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  EXPECT_EQ(sum, 328350u);
}

TEST(ThreadPool, ParallelForDynamicCoversAllIndices) {
  ThreadPool pool(4);
  // No items, fewer items than workers, and chunk sizes that divide n, that
  // leave a short last chunk, that exceed n, and 0 (treated as 1).
  for (std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{1000}}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{2000}, std::size_t{0}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for_dynamic(n, chunk, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n " << n << " chunk " << chunk;
    }
  }
}

TEST(ThreadPool, ParallelForDynamicBalancesAroundASlowItem) {
  // One item holds its worker for the whole call; the other workers take
  // every remaining item, where a static split would leave a quarter of
  // them queued behind the slow one.
  ThreadPool pool(4);
  std::atomic<bool> slow_done{false};
  std::atomic<int> after_slow{0};
  pool.parallel_for_dynamic(40, 1, [&](std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      slow_done.store(true);
    } else if (slow_done.load()) {
      after_slow.fetch_add(1);
    }
  });
  EXPECT_EQ(after_slow.load(), 0);
}

TEST(ThreadPool, ParallelForDynamicPropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_dynamic(100, 1,
                                         [](std::size_t i) {
                                           if (i == 37) throw std::runtime_error("boom");
                                         }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for_dynamic(100, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

class ResolveThreadCount : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("FASTZ_THREADS");
    if (prev != nullptr) saved_ = prev;
    unsetenv("FASTZ_THREADS");
  }
  void TearDown() override {
    if (saved_.empty()) {
      unsetenv("FASTZ_THREADS");
    } else {
      setenv("FASTZ_THREADS", saved_.c_str(), 1);
    }
  }
  std::string saved_;
};

TEST_F(ResolveThreadCount, ExplicitRequestPassesThrough) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  // An explicit request wins even when the env var disagrees.
  setenv("FASTZ_THREADS", "3", 1);
  EXPECT_EQ(resolve_thread_count(7), 7u);
}

TEST_F(ResolveThreadCount, AutoConsultsEnvironment) {
  setenv("FASTZ_THREADS", "6", 1);
  EXPECT_EQ(resolve_thread_count(0), 6u);
}

TEST_F(ResolveThreadCount, AutoFallsBackToHardwareConcurrency) {
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST_F(ResolveThreadCount, MalformedEnvironmentIsRejected) {
  // A typo'd FASTZ_THREADS must fail loudly, not silently fall back to a
  // different parallelism (the error names the bad value).
  for (const char* bad : {"0", "abc", "4x", "-2", "+3", " 5", "0x4",
                          "99999999999999999999999"}) {
    setenv("FASTZ_THREADS", bad, 1);
    try {
      resolve_thread_count(0);
      FAIL() << "FASTZ_THREADS=" << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << "error message does not name the bad value: " << e.what();
    }
  }
}

TEST_F(ResolveThreadCount, EmptyEnvironmentMeansUnset) {
  setenv("FASTZ_THREADS", "", 1);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST_F(ResolveThreadCount, ExplicitRequestIgnoresMalformedEnvironment) {
  // A nonzero request never consults the environment, malformed or not.
  setenv("FASTZ_THREADS", "garbage", 1);
  EXPECT_EQ(resolve_thread_count(5), 5u);
}

}  // namespace
}  // namespace fastz
