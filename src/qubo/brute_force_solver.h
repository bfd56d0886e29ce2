#pragma once

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "qubo/qubo_model.h"

namespace qopt {

/// Result of an exhaustive QUBO solve.
struct BruteForceResult {
  std::vector<std::uint8_t> best_bits;
  double best_energy = 0.0;
  /// Number of assignments attaining the minimum (useful to detect
  /// degenerate ground states in tests).
  std::uint64_t num_optima = 0;
};

/// Largest problem the exhaustive walk accepts: 2^26 Gray-code steps stay
/// sub-second, and anything much past it would effectively hang the
/// process.
inline constexpr int kMaxBruteForceVariables = 26;

/// Enumerates all 2^n assignments. Intended as a ground-truth oracle for
/// tests and tiny examples. Problems with more than
/// kMaxBruteForceVariables variables are refused with kResourceExhausted.
/// The walk itself is not interruptible: `deadline` is polled once, after
/// the size check, so an exhausted budget refuses to start it.
StatusOr<BruteForceResult> TrySolveQuboBruteForce(
    const QuboModel& qubo, const Deadline& deadline = {});

}  // namespace qopt
