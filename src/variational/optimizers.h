#pragma once

#include <cstdint>
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

/// All optimizers check `deadline` at every iteration boundary; on expiry
/// or cancellation they stop, return the best point found so far and set
/// `interrupted`. The default deadline is unbounded.

/// Derivative-free Nelder–Mead simplex minimization (the COBYLA stand-in;
/// both are the derivative-free local optimizers Qiskit defaults to). The
/// initial simplex steps 0.5 along each coordinate from x0.
OptimizeResult MinimizeNelderMead(const Objective& objective,
                                  const std::vector<double>& x0,
                                  int max_iterations = 400,
                                  double tolerance = 1e-6,
                                  const Deadline& deadline = {});

/// Adam-style gradient descent (learning rate 0.1) with central
/// finite-difference gradients (step 1e-4). On a noiseless statevector
/// backend the gradients are effectively exact, which makes this the
/// strongest (if costly: 2N evaluations per step) outer optimizer for
/// larger parameter counts.
OptimizeResult MinimizeAdam(const Objective& objective,
                            const std::vector<double>& x0,
                            int max_iterations = 100,
                            const Deadline& deadline = {});

/// Simultaneous perturbation stochastic approximation (gains a = 0.2,
/// c = 0.1), the optimizer recommended for noisy quantum objective
/// evaluations.
OptimizeResult MinimizeSpsa(const Objective& objective,
                            const std::vector<double>& x0,
                            int max_iterations = 200,
                            std::uint64_t seed = 0,
                            const Deadline& deadline = {});

}  // namespace qopt
