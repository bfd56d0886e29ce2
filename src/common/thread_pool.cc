#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/check.h"
#include "common/env.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qopt {
namespace {

/// Set while a thread executes ParallelFor chunks; nested calls detect it
/// and degrade to the serial inline path.
thread_local bool t_inside_parallel_for = false;

std::atomic<ThreadPool*> g_default_override{nullptr};

}  // namespace

/// Shared bookkeeping of one ParallelFor call. Heap-allocated and shared
/// with the enqueued helper tasks: a helper that only gets scheduled after
/// the caller has already finished every chunk must still find live state
/// (it will see no chunks left and exit immediately).
struct ThreadPool::ForState {
  std::function<void(std::size_t, std::size_t)> fn;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> finished{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::exception_ptr first_exception;
  std::mutex exception_mutex;
  /// Cancellation support (deadline-aware overloads only). When the
  /// deadline trips, `stopped` flips and later chunks are skipped — but
  /// they still count toward `finished`, so the caller's completion wait
  /// terminates while in-flight chunks drain normally.
  const Deadline* deadline = nullptr;
  std::atomic<bool> stopped{false};
  Status stop_status;
  std::mutex stop_mutex;
  /// Submitting thread's trace-span path, installed in every helper so
  /// worker-side spans parent identically at any pool size (kDetached
  /// when the tracer is disarmed).
  int trace_path = obs::ScopedTracePath::kDetached;
};

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  QOPT_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int t = 0; t + 1 < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  if (workers_.empty()) {
    (*packaged)();
    return future;
  }
  const int trace_path = obs::ScopedTracePath::Capture();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.emplace_back([packaged, trace_path] {
      obs::ScopedTracePath scoped_path(trace_path);
      (*packaged)();
    });
    QQO_GAUGE_MAX("threadpool.queue_depth",
                  static_cast<long long>(tasks_.size()));
  }
  task_available_.notify_one();
  return future;
}

void ThreadPool::RunChunks(ForState* state) {
  const bool was_inside = t_inside_parallel_for;
  t_inside_parallel_for = true;
  obs::ScopedTracePath scoped_path(state->trace_path);
  std::size_t chunk;
  while ((chunk = state->next_chunk.fetch_add(1)) < state->num_chunks) {
    bool skip = false;
    if (state->deadline != nullptr) {
      if (state->stopped.load(std::memory_order_acquire)) {
        skip = true;
      } else if (Status check = state->deadline->Check(); !check.ok()) {
        {
          std::lock_guard<std::mutex> lock(state->stop_mutex);
          if (state->stop_status.ok()) {
            state->stop_status = std::move(check);
          }
        }
        state->stopped.store(true, std::memory_order_release);
        skip = true;
      }
    }
    if (!skip) {
      const std::size_t begin = chunk * state->grain;
      const std::size_t end = std::min(begin + state->grain, state->n);
      try {
        state->fn(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->exception_mutex);
        if (!state->first_exception) {
          state->first_exception = std::current_exception();
        }
      }
    }
    const std::size_t done = state->finished.fetch_add(1) + 1;
    if (done == state->num_chunks) {
      std::lock_guard<std::mutex> lock(state->done_mutex);
      state->done_cv.notify_all();
    }
  }
  t_inside_parallel_for = was_inside;
}

Status ThreadPool::ParallelForRangeImpl(
    std::size_t n, std::size_t grain, const Deadline* deadline,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return OkStatus();
  grain = std::max<std::size_t>(grain, 1);
  // Serial path: pool of size 1, nested call, or nothing to split. The
  // chunk boundaries are the same as in the parallel path so blockwise
  // accumulations agree bit-for-bit across pool sizes.
  if (workers_.empty() || t_inside_parallel_for || n <= grain) {
    std::exception_ptr first_exception;
    Status stop_status;
    const bool was_inside = t_inside_parallel_for;
    t_inside_parallel_for = true;
    for (std::size_t begin = 0; begin < n && !first_exception;
         begin += grain) {
      if (deadline != nullptr) {
        stop_status = deadline->Check();
        if (!stop_status.ok()) break;
      }
      try {
        fn(begin, std::min(begin + grain, n));
      } catch (...) {
        first_exception = std::current_exception();
      }
    }
    t_inside_parallel_for = was_inside;
    if (first_exception) std::rethrow_exception(first_exception);
    return stop_status;
  }

  auto state = std::make_shared<ForState>();
  state->fn = fn;
  state->n = n;
  state->grain = grain;
  state->num_chunks = (n + grain - 1) / grain;
  state->deadline = deadline;
  state->trace_path = obs::ScopedTracePath::Capture();
  const std::size_t helpers =
      std::min(workers_.size(), state->num_chunks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace_back([state] { RunChunks(state.get()); });
    }
    QQO_GAUGE_MAX("threadpool.queue_depth",
                  static_cast<long long>(tasks_.size()));
  }
  task_available_.notify_all();
  RunChunks(state.get());  // the caller participates
  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done_cv.wait(lock, [&state] {
      return state->finished.load() == state->num_chunks;
    });
  }
  if (state->first_exception) std::rethrow_exception(state->first_exception);
  if (state->stopped.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(state->stop_mutex);
    return state->stop_status;
  }
  return OkStatus();
}

void ThreadPool::ParallelForRange(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  ParallelForRangeImpl(n, grain, /*deadline=*/nullptr, fn).IgnoreError();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  // One index per chunk keeps scheduling fair for coarse tasks (one seed,
  // one read, one embedding try per index).
  ParallelForRange(n, 1, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

Status ThreadPool::ParallelFor(std::size_t n, const Deadline& deadline,
                               const std::function<void(std::size_t)>& fn) {
  return ParallelForRangeImpl(
      n, 1, &deadline, [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      });
}

StatusOr<int> ThreadPool::PoolSizeFromEnvOrStatus() {
  // Strict parse: "abc", "0", "-3", "8x" and overflow are all reported
  // instead of silently running at hardware concurrency (the pre-PR5
  // atoi behaviour, which also had UB on overflow).
  QOPT_ASSIGN_OR_RETURN(std::optional<long long> requested,
                        EnvIntOrStatus("QQO_THREADS", 1, 4096));
  if (requested.has_value()) return static_cast<int>(*requested);
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware >= 1 ? static_cast<int>(hardware) : 1;
}

int ThreadPool::PoolSizeFromEnv() {
  StatusOr<int> size = PoolSizeFromEnvOrStatus();
  QOPT_CHECK_MSG(size.ok(), size.status().message().c_str());
  return *size;
}

ThreadPool& ThreadPool::Default() {
  ThreadPool* override_pool = g_default_override.load(std::memory_order_acquire);
  if (override_pool != nullptr) return *override_pool;
  static ThreadPool pool(PoolSizeFromEnv());
  return pool;
}

ScopedDefaultPool::ScopedDefaultPool(ThreadPool* pool)
    : previous_(g_default_override.exchange(pool, std::memory_order_acq_rel)) {}

ScopedDefaultPool::~ScopedDefaultPool() {
  g_default_override.store(previous_, std::memory_order_release);
}

}  // namespace qopt
