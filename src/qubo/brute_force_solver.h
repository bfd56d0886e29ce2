#pragma once

#include <cstdint>
#include <vector>

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

/// Absolute ceiling on exhaustive enumeration, regardless of what a
/// caller passes as `max_variables`: 2^30 Gray-code steps is already ~10s
/// of work, and anything past it would effectively hang the process. A
/// decomposition misconfiguration that routes an oversized block to the
/// exact lane must come back as a recoverable error, not a spin.
inline constexpr int kBruteForceHardCap = 30;

/// Enumerates all 2^n assignments. Intended as a ground-truth oracle for
/// tests and tiny examples. Problems with more than
/// min(max_variables, kBruteForceHardCap) variables are refused with
/// kInvalidArgument.
StatusOr<BruteForceResult> TrySolveQuboBruteForce(const QuboModel& qubo,
                                                  int max_variables = 26);

}  // namespace qopt
