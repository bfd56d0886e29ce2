#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bilp/bilp_problem.h"

namespace qopt {

/// Result of an exact BILP solve.
struct BilpSolution {
  std::vector<std::uint8_t> bits;
  double objective = 0.0;
};

/// Exact depth-first branch-and-bound over the binary variables with
/// per-constraint interval propagation: a partial assignment is pruned as
/// soon as some equality constraint can no longer reach its right-hand
/// side, or the (non-negative) objective already matches the incumbent.
/// This is the classical comparator standing in for the MILP solver of
/// [16]. Returns nullopt for infeasible problems. The search explores at
/// most 50 million nodes; when that cap is hit the best incumbent found
/// so far is returned (or nullopt if none).
std::optional<BilpSolution> SolveBilpBranchAndBound(const BilpProblem& bilp);

}  // namespace qopt
