#include "util/thread_pool.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace avoc::util {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WaitBlocksUntilSlowTasksFinish) {
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  pool.Submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    done.store(true);
  });
  pool.Wait();
  EXPECT_TRUE(done.load());
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    pool.ParallelFor(20, [&counter](size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ThreadCountIncludesTheCaller) {
  ThreadPool solo(1);
  EXPECT_EQ(solo.thread_count(), 1u);
  std::atomic<int> counter{0};
  solo.ParallelFor(10, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, CallerRunsAnIndexOfParallelFor) {
  // Workers hold their first index until the caller has run one (or a
  // generous deadline passes), so they cannot take every index first.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::atomic<bool> caller_ran{false};
  std::vector<std::atomic<int>> hits(pool.thread_count());
  pool.ParallelFor(hits.size(), [&](size_t i) {
    if (std::this_thread::get_id() == caller) {
      caller_ran.store(true);
    } else {
      while (!caller_ran.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    hits[i].fetch_add(1);
  });
  EXPECT_TRUE(caller_ran.load());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WavesAfterParkingCoverEveryIndexExactlyOnce) {
  // Sleeping past the spin window parks every worker, so each wave below
  // starts through the wake path rather than the spin path.  The caller
  // holds its first index until a worker has run one (or a generous
  // deadline passes), so a wave that wakes no worker shows.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr int kWaves = 5;
  std::vector<std::atomic<int>> hits(37);
  for (int wave = 0; wave < kWaves; ++wave) {
    std::this_thread::sleep_for(ThreadPool::kSpinWindow * 4 +
                                std::chrono::milliseconds(2));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    std::atomic<bool> worker_ran{false};
    pool.ParallelFor(hits.size(), [&](size_t i) {
      if (std::this_thread::get_id() != caller) {
        worker_ran.store(true);
      } else {
        while (!worker_ran.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      hits[i].fetch_add(1);
    });
    EXPECT_TRUE(worker_ran.load()) << "wave " << wave;
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), kWaves) << "index " << i;
  }
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

TEST(ThreadPoolTest, IdlePoolParks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.ParallelFor(64, [&counter](size_t) { counter.fetch_add(1); });
  std::this_thread::sleep_for(ThreadPool::kSpinWindow +
                              std::chrono::milliseconds(20));
  // Three workers spinning through the idle period would burn ~150 ms.
  const double before = CpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double idle_cpu = CpuSeconds() - before;
  EXPECT_LT(idle_cpu, 0.025);
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, DestructorJoinsSpinningWorkers) {
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(4);
    pool.ParallelFor(8, [&counter](size_t) { counter.fetch_add(1); });
    // The pool goes out of scope inside the workers' spin window.
  }
  EXPECT_EQ(counter.load(), 160);
}

}  // namespace
}  // namespace avoc::util
