#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"

namespace qopt {
namespace {

TEST(ThreadPoolTest, PoolOfSizeOneRunsSeriallyInIndexOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.NumThreads(), 1);
  std::vector<std::size_t> order;
  pool.ParallelFor(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRangeChunksCoverWithoutOverlap) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelForRange(hits.size(), 256,
                        [&](std::size_t begin, std::size_t end) {
                          EXPECT_LE(end - begin, 256u);
                          for (std::size_t i = begin; i < end; ++i) {
                            hits[i].fetch_add(1);
                          }
                        });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(128,
                                [](std::size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromSerialPool) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(10,
                                [](std::size_t i) {
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsSeriallyAndCompletes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> grid(64);
  pool.ParallelFor(8, [&](std::size_t outer) {
    // This test exercises exactly the guarded behavior: a nested
    // ParallelFor detects it is on the pool (t_inside_parallel_for) and
    // runs inline-serial instead of deadlocking.
    // NOLINTNEXTLINE(qqo-pool-reentrancy): intentional nested section
    pool.ParallelFor(8, [&](std::size_t inner) {
      grid[outer * 8 + inner].fetch_add(1);
    });
  });
  for (const auto& cell : grid) EXPECT_EQ(cell.load(), 1);
}

TEST(ThreadPoolTest, SubmitRunsTaskAndReportsCompletion) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  std::future<void> done = pool.Submit([&value] { value.store(42); });
  done.wait();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<void> done =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(done.get(), std::runtime_error);
}

TEST(ThreadPoolTest, PoolSizeFromEnvPrefersQqoThreads) {
  setenv("QQO_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::PoolSizeFromEnv(), 3);
  unsetenv("QQO_THREADS");
  EXPECT_GE(ThreadPool::PoolSizeFromEnv(), 1);  // hardware concurrency
}

TEST(ThreadPoolTest, PoolSizeFromEnvRejectsInvalidValues) {
  // Regression: QQO_THREADS=garbage used to atoi to 0 and silently fall
  // back to hardware concurrency; zero/negative values were accepted as
  // written. All of these are now explicit errors.
  for (const char* bad : {"not-a-number", "0", "-2", "4x", "",
                          "99999999999999999999"}) {
    setenv("QQO_THREADS", bad, 1);
    const StatusOr<int> size = ThreadPool::PoolSizeFromEnvOrStatus();
    if (*bad == '\0') {
      // Empty counts as unset: hardware default, no error.
      ASSERT_TRUE(size.ok());
      EXPECT_GE(*size, 1);
      continue;
    }
    ASSERT_FALSE(size.ok()) << "QQO_THREADS=" << bad;
    EXPECT_TRUE(size.status().code() == StatusCode::kInvalidArgument ||
                size.status().code() == StatusCode::kOutOfRange)
        << size.status().ToString();
    EXPECT_NE(size.status().message().find("QQO_THREADS"),
              std::string::npos)
        << size.status().ToString();
  }
  unsetenv("QQO_THREADS");
  const StatusOr<int> unset = ThreadPool::PoolSizeFromEnvOrStatus();
  ASSERT_TRUE(unset.ok());
  EXPECT_GE(*unset, 1);
}

TEST(ThreadPoolTest, ScopedDefaultPoolOverridesAndRestores) {
  ThreadPool replacement(2);
  ThreadPool& original = ThreadPool::Default();
  {
    ScopedDefaultPool guard(&replacement);
    EXPECT_EQ(&ThreadPool::Default(), &replacement);
  }
  EXPECT_EQ(&ThreadPool::Default(), &original);
}

TEST(ThreadPoolTest, DefaultPoolIsSizedExactlyOnce) {
  // The contract pinned here: Default() consults QQO_THREADS only at the
  // first call in the process; later env changes do NOT resize it.
  const int initial = ThreadPool::Default().NumThreads();
  setenv("QQO_THREADS", initial == 5 ? "6" : "5", 1);
  EXPECT_EQ(ThreadPool::Default().NumThreads(), initial);
  // PoolSizeFromEnv itself reads fresh, which is exactly the asymmetry
  // the Default() documentation warns about.
  EXPECT_EQ(ThreadPool::PoolSizeFromEnv(), initial == 5 ? 6 : 5);
  unsetenv("QQO_THREADS");
}

TEST(ThreadPoolTest, UnboundedDeadlineOverloadMatchesPlainParallelFor) {
  ThreadPool pool(4);
  std::vector<long long> plain(5000), budgeted(5000);
  pool.ParallelFor(plain.size(), [&](std::size_t i) {
    plain[i] = static_cast<long long>(i) * 3;
  });
  const Status status =
      pool.ParallelFor(budgeted.size(), Deadline(), [&](std::size_t i) {
        budgeted[i] = static_cast<long long>(i) * 3;
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(plain, budgeted);
}

TEST(ThreadPoolTest, CompletedDeadlineRunCoversEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4096);
  const Status status = pool.ParallelFor(
      hits.size(), Deadline::AfterMillis(1e7),
      [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_TRUE(status.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ExpiredDeadlineSkipsEveryChunk) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  const Status status = pool.ParallelFor(
      10000, Deadline::AfterMillis(0),
      [&](std::size_t) { ran.fetch_add(1); });
  // The deadline is checked before each chunk is claimed, so an
  // already-expired budget runs nothing — and the call still returns (the
  // completion wait must count skipped chunks).
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, PreCancelledTokenSkipsEveryChunkWithCancelled) {
  ThreadPool pool(4);
  CancelToken token;
  token.Cancel();
  std::atomic<int> ran{0};
  const Status status = pool.ParallelFor(
      1000, Deadline().WithToken(&token),
      [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, CancellationMidRunDrainsInFlightChunks) {
  ThreadPool pool(4);
  CancelToken token;
  std::atomic<int> started{0}, finished{0};
  const Status status =
      pool.ParallelFor(1000, Deadline().WithToken(&token), [&](std::size_t i) {
        started.fetch_add(1);
        if (i == 0) token.Cancel();
        finished.fetch_add(1);
      });
  // Every chunk that started also finished (drain, no teardown mid-chunk),
  // and the call reports what interrupted it — unless chunk 0 happened to
  // be claimed last, in which case the run simply completed.
  EXPECT_EQ(started.load(), finished.load());
  if (started.load() < 1000) {
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
  }
}

TEST(ThreadPoolTest, SerialPoolHonorsDeadlineOverloads) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  const Status expired = pool.ParallelFor(
      100, Deadline::AfterMillis(0), [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ran.load(), 0);
  std::vector<std::size_t> order;
  const Status completed = pool.ParallelFor(
      50, Deadline::AfterMillis(1e7),
      [&](std::size_t i) { order.push_back(i); });
  EXPECT_TRUE(completed.ok());
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, LargeFanOutAccumulatesCorrectSum) {
  ThreadPool pool(8);
  std::vector<long long> partial(100000);
  pool.ParallelFor(partial.size(),
                   [&](std::size_t i) { partial[i] = static_cast<long long>(i); });
  const long long total =
      std::accumulate(partial.begin(), partial.end(), 0LL);
  EXPECT_EQ(total, 99999LL * 100000 / 2);
}

}  // namespace
}  // namespace qopt
