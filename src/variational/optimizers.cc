#include "variational/optimizers.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace qopt {
namespace {

/// Offset of each initial simplex vertex from x0 along its coordinate.
constexpr double kInitialStep = 0.5;

}  // namespace

OptimizeResult MinimizeNelderMead(const Objective& objective,
                                  const std::vector<double>& x0,
                                  int max_iterations, double tolerance,
                                  const Deadline& deadline) {
  const std::size_t n = x0.size();
  QOPT_CHECK(n >= 1);
  OptimizeResult result;

  // Build the initial simplex: x0 plus one vertex per coordinate.
  std::vector<std::vector<double>> simplex(n + 1, x0);
  for (std::size_t i = 0; i < n; ++i) simplex[i + 1][i] += kInitialStep;
  std::vector<double> fvals(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    fvals[i] = objective(simplex[i]);
    ++result.evaluations;
  }

  constexpr double kAlpha = 1.0;   // reflection
  constexpr double kGamma = 2.0;   // expansion
  constexpr double kRho = 0.5;     // contraction
  constexpr double kSigma = 0.5;   // shrink

  // QQO_LOOP(opt.nelder_mead)
  for (int iter = 0; iter < max_iterations; ++iter) {
    if (!deadline.Check().ok()) {
      result.interrupted = true;
      break;
    }
    ++result.iterations;
    QQO_COUNT("variational.iterations", 1);
    // Order vertices by objective value.
    std::vector<std::size_t> order(n + 1);
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fvals[a] < fvals[b]; });
    {
      std::vector<std::vector<double>> new_simplex(n + 1);
      std::vector<double> new_fvals(n + 1);
      for (std::size_t i = 0; i <= n; ++i) {
        new_simplex[i] = std::move(simplex[order[i]]);
        new_fvals[i] = fvals[order[i]];
      }
      simplex = std::move(new_simplex);
      fvals = std::move(new_fvals);
    }
    if (std::abs(fvals[n] - fvals[0]) < tolerance) break;

    // Centroid of the n best vertices.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i][d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto affine = [&](double t) {
      std::vector<double> p(n);
      for (std::size_t d = 0; d < n; ++d) {
        p[d] = centroid[d] + t * (simplex[n][d] - centroid[d]);
      }
      return p;
    };

    const std::vector<double> reflected = affine(-kAlpha);
    const double f_reflected = objective(reflected);
    ++result.evaluations;
    if (f_reflected < fvals[0]) {
      const std::vector<double> expanded = affine(-kGamma);
      const double f_expanded = objective(expanded);
      ++result.evaluations;
      if (f_expanded < f_reflected) {
        simplex[n] = expanded;
        fvals[n] = f_expanded;
      } else {
        simplex[n] = reflected;
        fvals[n] = f_reflected;
      }
      continue;
    }
    if (f_reflected < fvals[n - 1]) {
      simplex[n] = reflected;
      fvals[n] = f_reflected;
      continue;
    }
    const std::vector<double> contracted = affine(kRho);
    const double f_contracted = objective(contracted);
    ++result.evaluations;
    if (f_contracted < fvals[n]) {
      simplex[n] = contracted;
      fvals[n] = f_contracted;
      continue;
    }
    // Shrink toward the best vertex.
    for (std::size_t i = 1; i <= n; ++i) {
      for (std::size_t d = 0; d < n; ++d) {
        simplex[i][d] = simplex[0][d] + kSigma * (simplex[i][d] - simplex[0][d]);
      }
      fvals[i] = objective(simplex[i]);
      ++result.evaluations;
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (fvals[i] < fvals[best]) best = i;
  }
  result.x = simplex[best];
  result.fval = fvals[best];
  return result;
}

}  // namespace qopt
