#pragma once

#include <functional>
#include <vector>

#include "common/deadline.h"

namespace qopt {

/// Objective for the classical outer loop of a variational algorithm.
using Objective = std::function<double(const std::vector<double>&)>;

/// Result of a classical optimization run.
struct OptimizeResult {
  std::vector<double> x;
  double fval = 0.0;
  int evaluations = 0;
  int iterations = 0;
  /// True when the deadline expired or the CancelToken fired before
  /// max_iterations / convergence: x is the best point seen so far, from
  /// fewer iterations than requested. Callers that need to distinguish
  /// expiry from cancellation re-check their own deadline.
  bool interrupted = false;
};

/// Derivative-free Nelder–Mead simplex minimization, the outer optimizer
/// of QAOA and VQE (the stand-in for the paper's COBYLA; both are the
/// derivative-free local optimizers Qiskit defaults to). The initial
/// simplex steps 0.5 along each coordinate from x0. `deadline` is checked
/// at every iteration boundary; on expiry or cancellation the run stops,
/// returns the best point found so far and sets `interrupted`. The default
/// deadline is unbounded.
OptimizeResult MinimizeNelderMead(const Objective& objective,
                                  const std::vector<double>& x0,
                                  int max_iterations = 400,
                                  double tolerance = 1e-6,
                                  const Deadline& deadline = {});

}  // namespace qopt
