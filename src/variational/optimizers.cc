#include "variational/optimizers.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/random.h"
#include "obs/metrics.h"

namespace qopt {
namespace {

/// Nelder-Mead: offset of each initial simplex vertex from x0 along its
/// coordinate.
constexpr double kInitialStep = 0.5;
/// SPSA gain numerators: a_k = kSpsaA / (k + 1 + 10)^0.602 scales the step,
/// c_k = kSpsaC / (k + 1)^0.101 the perturbation.
constexpr double kSpsaA = 0.2;
constexpr double kSpsaC = 0.1;
/// Adam step size.
constexpr double kLearningRate = 0.1;
/// Central finite-difference step of Adam's gradient estimate.
constexpr double kGradientStep = 1e-4;

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

OptimizeResult MinimizeAdam(const Objective& objective,
                            const std::vector<double>& x0, int max_iterations,
                            const Deadline& deadline) {
  const std::size_t n = x0.size();
  QOPT_CHECK(n >= 1);
  OptimizeResult result;
  std::vector<double> x = x0;
  std::vector<double> m(n, 0.0);
  std::vector<double> v(n, 0.0);
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEpsilon = 1e-8;
  double best_f = objective(x);
  ++result.evaluations;
  std::vector<double> best_x = x;
  std::vector<double> probe = x;
  // QQO_LOOP(opt.adam)
  for (int k = 1; k <= max_iterations; ++k) {
    if (!deadline.Check().ok()) {
      result.interrupted = true;
      break;
    }
    ++result.iterations;
    QQO_COUNT("variational.iterations", 1);
    // Central-difference gradient.
    std::vector<double> gradient(n);
    for (std::size_t d = 0; d < n; ++d) {
      probe = x;
      probe[d] += kGradientStep;
      const double f_plus = objective(probe);
      probe[d] -= 2.0 * kGradientStep;
      const double f_minus = objective(probe);
      result.evaluations += 2;
      gradient[d] = (f_plus - f_minus) / (2.0 * kGradientStep);
    }
    for (std::size_t d = 0; d < n; ++d) {
      m[d] = kBeta1 * m[d] + (1.0 - kBeta1) * gradient[d];
      v[d] = kBeta2 * v[d] + (1.0 - kBeta2) * gradient[d] * gradient[d];
      const double m_hat = m[d] / (1.0 - std::pow(kBeta1, k));
      const double v_hat = v[d] / (1.0 - std::pow(kBeta2, k));
      x[d] -= kLearningRate * m_hat / (std::sqrt(v_hat) + kEpsilon);
    }
    const double f = objective(x);
    ++result.evaluations;
    if (f < best_f) {
      best_f = f;
      best_x = x;
    }
  }
  result.x = best_x;
  result.fval = best_f;
  return result;
}

OptimizeResult MinimizeSpsa(const Objective& objective,
                            const std::vector<double>& x0, int max_iterations,
                            std::uint64_t seed, const Deadline& deadline) {
  const std::size_t n = x0.size();
  QOPT_CHECK(n >= 1);
  Rng rng(seed);
  OptimizeResult result;
  std::vector<double> x = x0;
  std::vector<double> best_x = x0;
  double best_f = objective(x0);
  ++result.evaluations;

  constexpr double kAlphaExp = 0.602;
  constexpr double kGammaExp = 0.101;
  constexpr double kStability = 10.0;
  std::vector<double> delta(n);
  std::vector<double> x_plus(n);
  std::vector<double> x_minus(n);
  // QQO_LOOP(opt.spsa)
  for (int k = 0; k < max_iterations; ++k) {
    if (!deadline.Check().ok()) {
      result.interrupted = true;
      break;
    }
    ++result.iterations;
    QQO_COUNT("variational.iterations", 1);
    const double ak = kSpsaA / std::pow(k + 1 + kStability, kAlphaExp);
    const double ck = kSpsaC / std::pow(k + 1, kGammaExp);
    for (std::size_t d = 0; d < n; ++d) {
      delta[d] = rng.NextBool() ? 1.0 : -1.0;
      x_plus[d] = x[d] + ck * delta[d];
      x_minus[d] = x[d] - ck * delta[d];
    }
    const double f_plus = objective(x_plus);
    const double f_minus = objective(x_minus);
    result.evaluations += 2;
    const double diff = (f_plus - f_minus) / (2.0 * ck);
    for (std::size_t d = 0; d < n; ++d) x[d] -= ak * diff / delta[d];
    const double f = std::min(f_plus, f_minus);
    if (f < best_f) {
      best_f = f;
      best_x = f_plus < f_minus ? x_plus : x_minus;
    }
  }
  const double f_final = objective(x);
  ++result.evaluations;
  if (f_final < best_f) {
    best_f = f_final;
    best_x = x;
  }
  result.x = best_x;
  result.fval = best_f;
  return result;
}

}  // namespace qopt
