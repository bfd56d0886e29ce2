#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace qopt {
namespace {

/// splitmix64 finalizer — the same mixing used for per-read RNG streams.
std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

double BackoffMillis(const RetryPolicy& policy, int attempt) {
  if (attempt < 1 || policy.initial_backoff_ms <= 0.0) return 0.0;
  const double nominal =
      policy.initial_backoff_ms * std::pow(kBackoffMultiplier, attempt - 1);
  const double capped = std::min(nominal, kMaxBackoffMs);
  // Jitter in [0.5, 1.0]: spreads retries without ever exceeding the cap.
  const std::uint64_t h =
      Mix64(policy.seed + 0x9E3779B97F4A7C15ULL *
                              static_cast<std::uint64_t>(attempt));
  const double jitter =
      0.5 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  return capped * jitter;
}

std::uint64_t AttemptSeed(std::uint64_t seed, std::int64_t attempt) {
  if (attempt <= 1) return seed;
  return Mix64(seed +
               0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(attempt));
}

bool IsRetryableStatus(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

bool SleepWithDeadline(double ms, const Deadline& deadline) {
  if (deadline.Cancelled()) return false;
  if (ms <= 0.0) return true;
  if (ms >= deadline.RemainingMillis()) return false;
  // Sleep in short slices so a cancellation is observed promptly.
  constexpr double kSliceMs = 5.0;
  double left = ms;
  while (left > 0.0) {
    if (deadline.Cancelled()) return false;
    const double slice = std::min(left, kSliceMs);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(slice));
    left -= slice;
  }
  return !deadline.Cancelled();
}

}  // namespace qopt
