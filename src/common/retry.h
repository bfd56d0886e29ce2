#pragma once

#include <cstdint>

#include "common/status.h"

namespace qopt {

/// Deterministic per-attempt seed stream (splitmix64 finalizer). Attempt 1
/// (and below) keeps the caller's seed so retry-free runs reproduce
/// historical output bit-for-bit; every other attempt jumps to an
/// unrelated stream. The facade's dispatch layers partition the attempt
/// domain so their streams never collide: serial retries use 1..N and the
/// decomposer's partition / subproblem seeds use dedicated bases >= 2^16
/// (see decompose/).
std::uint64_t AttemptSeed(std::uint64_t seed, std::int64_t attempt);

/// True for failures worth retrying with a fresh seed: transient
/// best-effort losses (kUnavailable — e.g. no minor embedding found, an
/// injected transient fault). Deterministic input errors, size limits and
/// budget exhaustion are not retryable.
bool IsRetryableStatus(StatusCode code);

}  // namespace qopt
