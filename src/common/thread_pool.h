#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"

namespace qopt {

/// Fixed-size worker pool shared by every parallel hot path (multi-seed
/// transpilation, multi-read annealing, multi-seed embedding, statevector
/// kernels). The pool size counts the calling thread: a pool of size N
/// spawns N-1 workers and the caller participates in every ParallelFor, so
/// size 1 spawns no threads at all and runs the exact serial code path.
///
/// Determinism contract: ParallelFor writes results through the iteration
/// index only, so callers that index output slots by iteration get
/// identical results for any pool size. Nested ParallelFor calls (from
/// inside a worker) run serially inline, which also makes the pool
/// deadlock-free under composition.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int NumThreads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, n) and blocks until all calls have
  /// returned. The first exception thrown by fn (if any) is rethrown in
  /// the caller once every in-flight iteration has finished. With a pool
  /// of size 1 — or when called from inside another ParallelFor — the
  /// loop runs serially in index order on the calling thread.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunked flavour for tight kernels: fn(begin, end) receives half-open
  /// index ranges of at most `grain` elements. Chunk boundaries depend only
  /// on (n, grain), never on the pool size, so blockwise accumulations are
  /// reproducible across thread counts.
  void ParallelForRange(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Cancellable flavour: the deadline (and its CancelToken) is checked
  /// once per chunk at the claim boundary. On expiry or cancellation,
  /// chunks that have not started yet are skipped while in-flight chunks
  /// drain to completion, then the deadline's Status (kDeadlineExceeded or
  /// kCancelled) is returned. Returns OK iff every iteration ran — and a
  /// run that returns OK executed exactly the chunk schedule of the
  /// deadline-free overload, so completed runs stay bit-for-bit
  /// deterministic. Iterations themselves are never interrupted mid-call.
  Status ParallelFor(std::size_t n, const Deadline& deadline,
                     const std::function<void(std::size_t)>& fn);

  /// Enqueues one task; the future reports completion or the task's
  /// exception. With a pool of size 1 the task runs immediately inline.
  std::future<void> Submit(std::function<void()> task);

  /// Process-wide default pool. Sized exactly once, by the value
  /// PoolSizeFromEnv() returns at the first Default() call in the process;
  /// changing QQO_THREADS afterwards does NOT resize it (the pool owns
  /// running threads and never re-reads the environment). Tests that need
  /// a different size install one with ScopedDefaultPool instead of
  /// mutating the environment mid-process.
  static ThreadPool& Default();

  /// Pool size requested by the environment: QQO_THREADS if set,
  /// otherwise std::thread::hardware_concurrency() (at least 1). Read
  /// fresh on every call — but note that Default() only consults it once
  /// (see above). A set-but-invalid QQO_THREADS (non-numeric, zero,
  /// negative, overflow) is a kInvalidArgument / kOutOfRange Status, not
  /// a silent fallback; front-ends validate this before doing work.
  static StatusOr<int> PoolSizeFromEnvOrStatus();

  /// CHECK-ing flavour of PoolSizeFromEnvOrStatus() for contexts with no
  /// Status channel (static initialization of Default()); aborts with the
  /// parse error message on invalid QQO_THREADS.
  static int PoolSizeFromEnv();

 private:
  friend class ScopedDefaultPool;

  void WorkerLoop();
  /// Claims chunks until none remain. Returns once the queue is drained
  /// (other claimed chunks may still be running elsewhere).
  struct ForState;
  static void RunChunks(ForState* state);
  /// Shared body of ParallelForRange and the deadline-aware ParallelFor;
  /// `deadline` may be null (never checked, never returns non-OK).
  Status ParallelForRangeImpl(
      std::size_t n, std::size_t grain, const Deadline* deadline,
      const std::function<void(std::size_t, std::size_t)>& fn);

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool shutting_down_ = false;
};

/// RAII override of ThreadPool::Default() — lets tests run the same code
/// under pools of different sizes within one process to assert that
/// results are identical at 1 thread and at N threads.
class ScopedDefaultPool {
 public:
  explicit ScopedDefaultPool(ThreadPool* pool);
  ~ScopedDefaultPool();

  ScopedDefaultPool(const ScopedDefaultPool&) = delete;
  ScopedDefaultPool& operator=(const ScopedDefaultPool&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace qopt
