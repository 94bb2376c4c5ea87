// ThreadPool: the one-dispatch-slot substrate under the experiment
// engine. The contracts tested here are the ones sweeps lean on: every
// index runs exactly once per call, k helpers plus the caller run
// concurrently, indices go out largest first, the lowest-index exception
// surfaces, and nested or concurrent calls cannot deadlock the pool.
#include "src/support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/support/mutex.h"

namespace dynbcast {
namespace {

TEST(ThreadPoolTest, TasksSpreadAcrossAllWorkers) {
  // ThreadPool(3) runs 3 + 1 bodies at once: four bodies wait until all
  // four have started, which only resolves if the three helpers and the
  // caller each took one.
  ThreadPool pool(3);
  EXPECT_EQ(pool.threadCount(), 3u);
  std::atomic<int> started{0};
  std::atomic<int> timedOut{0};
  pool.parallelFor(4, [&](std::size_t) {
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 4) {
      if (std::chrono::steady_clock::now() >= deadline) {
        ++timedOut;
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(started.load(), 4);
  EXPECT_EQ(timedOut.load(), 0);
}

TEST(ThreadPoolTest, ParallelForHandsOutIndicesLargestFirst) {
  // Every thread sees strictly decreasing indices, and count - 1 is the
  // first index its thread ran.
  ThreadPool pool(3);
  for (int attempt = 0; attempt < 20; ++attempt) {
    constexpr std::size_t kCount = 200;
    Mutex mutex;
    std::map<std::thread::id, std::vector<std::size_t>> seen;
    pool.parallelFor(kCount, [&](std::size_t i) {
      MutexLock lock(mutex);
      seen[std::this_thread::get_id()].push_back(i);
    });
    std::size_t total = 0;
    bool topFirst = false;
    for (const auto& [thread, indices] : seen) {
      total += indices.size();
      if (indices.front() == kCount - 1) topFirst = true;
      for (std::size_t k = 1; k < indices.size(); ++k) {
        EXPECT_LT(indices[k], indices[k - 1]);
      }
    }
    EXPECT_EQ(total, kCount);
    EXPECT_TRUE(topFirst);
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallelFor(257, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, BackToBackCallsEachCoverEveryIndexOnce) {
  // One pool, many short calls: helpers that wake late for a finished
  // call must neither skip nor repeat an index of the next one.
  ThreadPool pool(3);
  for (int call = 0; call < 1000; ++call) {
    const std::size_t count = 2 + static_cast<std::size_t>(call % 7);
    std::vector<std::atomic<int>> hits(count);
    pool.parallelFor(count, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "call " << call << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOneCounts) {
  ThreadPool pool(2);
  pool.parallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
  int calls = 0;
  pool.parallelFor(1, [&calls](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  // Deterministic error reporting: whatever the schedule, the surviving
  // exception is the one from the smallest failing index, and the pool
  // stays usable for the next call.
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      pool.parallelFor(64, [](std::size_t i) {
        if (i % 2 == 1) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      FAIL() << "expected parallelFor to throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "1");
    }
  }
}

TEST(ThreadPoolTest, ParallelForNestedInsideTask) {
  // A parallelFor issued from inside a body runs inline on that body's
  // thread, in descending order, even when the pool has one helper.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  std::atomic<int> outOfOrder{0};
  pool.parallelFor(4, [&](std::size_t) {
    std::size_t expect = 16;
    pool.parallelFor(16, [&](std::size_t i) {
      if (i + 1 != expect) ++outOfOrder;
      expect = i;
      ++ran;
    });
  });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(outOfOrder.load(), 0);
}

TEST(ThreadPoolTest, ParallelForFromTwoThreadsAtOnce) {
  // Overlapping calls from different threads both complete; the one
  // that finds the dispatch slot taken runs inline.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(2 * 300);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 2; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int call = 0; call < 50; ++call) {
        pool.parallelFor(6, [&hits, c, call](std::size_t i) {
          ++hits[c * 300 + static_cast<std::size_t>(call) * 6 + i];
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ThreadPoolTest, RejectsMoreThanMaxPoolThreads) {
  // The check runs before any thread starts, so this asks for nothing.
  try {
    ThreadPool pool(kMaxPoolThreads + 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxPoolThreads = 1024"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dynbcast
