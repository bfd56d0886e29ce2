#pragma once

#include <cstdint>

#include "common/deadline.h"
#include "common/status.h"

namespace qopt {

/// Growth factor of the nominal backoff per retry.
inline constexpr double kBackoffMultiplier = 2.0;
/// Cap of the nominal backoff, in milliseconds.
inline constexpr double kMaxBackoffMs = 1000.0;

/// Retry budget with deterministic seeded backoff. Attempt k (k = 1 is
/// the first retry) waits
///   min(initial_backoff_ms * kBackoffMultiplier^(k-1), kMaxBackoffMs)
///     * jitter(seed, k)
/// where jitter is a splitmix-derived factor in [0.5, 1.0] — deterministic
/// for a given (seed, attempt), so retried runs reproduce their timing
/// decisions exactly.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retries).
  int max_attempts = 1;
  /// Base wait before the first retry; 0 retries immediately.
  double initial_backoff_ms = 0.0;
  /// Jitter stream; combined with the attempt index.
  std::uint64_t seed = 0;
};

/// Deterministic backoff before retry attempt `attempt` (1-based).
double BackoffMillis(const RetryPolicy& policy, int attempt);

/// Deterministic per-attempt seed stream (splitmix64 finalizer). Attempt 1
/// (and below) keeps the caller's seed so retry-free runs reproduce
/// historical output bit-for-bit; every other attempt jumps to an
/// unrelated stream. The facade's dispatch layers partition the attempt
/// domain so their streams never collide: serial retries use 1..N, the
/// race tie keys use 1000 + lane rank, and the decomposer's partition /
/// subproblem seeds use dedicated bases >= 2^16 (see decompose/).
std::uint64_t AttemptSeed(std::uint64_t seed, std::int64_t attempt);

/// True for failures worth retrying with a fresh seed: transient
/// best-effort losses (kUnavailable — e.g. no minor embedding found, an
/// injected transient fault). Deterministic input errors, size limits and
/// budget exhaustion are not retryable.
bool IsRetryableStatus(StatusCode code);

/// Sleeps for `ms`, but never past `deadline`. Returns false (without
/// sleeping the full duration) when the deadline would be crossed or the
/// token fired — the caller should stop retrying.
bool SleepWithDeadline(double ms, const Deadline& deadline);

}  // namespace qopt
