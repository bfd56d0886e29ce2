#include "variational/adiabatic.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "circuit/statevector.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qubo/conversions.h"

namespace qopt {
namespace {

using Complex = std::complex<double>;

/// Applies exp(+i a X) to every qubit of the dense state (the mixer slice
/// of a Trotter step; H_B = -sum X so exp(-i dt (1-s) H_B) has a = dt(1-s)).
void ApplyMixerSlice(std::vector<Complex>* amplitudes, int num_qubits,
                     double a) {
  const Complex c = std::cos(a);
  const Complex is = Complex(0.0, 1.0) * std::sin(a);
  for (int q = 0; q < num_qubits; ++q) {
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < amplitudes->size(); base += 2 * stride) {
      for (std::size_t offset = 0; offset < stride; ++offset) {
        const std::size_t i0 = base + offset;
        const std::size_t i1 = i0 + stride;
        const Complex a0 = (*amplitudes)[i0];
        const Complex a1 = (*amplitudes)[i1];
        (*amplitudes)[i0] = c * a0 + is * a1;
        (*amplitudes)[i1] = is * a0 + c * a1;
      }
    }
  }
}

/// Sparse matrix-vector product v -> H(s) v with
/// H(s) = (1-s) * (-sum X) + s * diag(problem energies).
void HamiltonianMatVec(const std::vector<double>& energies, int num_qubits,
                       double s, const std::vector<double>& v,
                       std::vector<double>* out) {
  const std::size_t dim = v.size();
  for (std::size_t j = 0; j < dim; ++j) {
    double value = s * energies[j] * v[j];
    for (int q = 0; q < num_qubits; ++q) {
      value -= (1.0 - s) * v[j ^ (std::size_t{1} << q)];
    }
    (*out)[j] = value;
  }
}

/// Two smallest eigenvalues of the symmetric tridiagonal matrix
/// (alpha, beta) by bisection with Sturm sequence counting.
std::pair<double, double> TridiagTwoSmallest(const std::vector<double>& alpha,
                                             const std::vector<double>& beta) {
  const int m = static_cast<int>(alpha.size());
  QOPT_CHECK(m >= 2);
  // Gershgorin bounds.
  double lo = alpha[0];
  double hi = alpha[0];
  for (int i = 0; i < m; ++i) {
    const double left = i > 0 ? std::abs(beta[static_cast<std::size_t>(i - 1)]) : 0.0;
    const double right =
        i + 1 < m ? std::abs(beta[static_cast<std::size_t>(i)]) : 0.0;
    lo = std::min(lo, alpha[static_cast<std::size_t>(i)] - left - right);
    hi = std::max(hi, alpha[static_cast<std::size_t>(i)] + left + right);
  }
  auto count_below = [&](double x) {
    // Number of eigenvalues < x via the Sturm sequence.
    int count = 0;
    double d = 1.0;
    for (int i = 0; i < m; ++i) {
      const double b2 =
          i > 0 ? beta[static_cast<std::size_t>(i - 1)] *
                      beta[static_cast<std::size_t>(i - 1)]
                : 0.0;
      d = alpha[static_cast<std::size_t>(i)] - x - (i > 0 ? b2 / d : 0.0);
      if (d == 0.0) d = -1e-30;
      if (d < 0.0) ++count;
    }
    return count;
  };
  auto kth_eigenvalue = [&](int k) {
    double a = lo;
    double b = hi;
    for (int iter = 0; iter < 100; ++iter) {
      const double mid = 0.5 * (a + b);
      if (count_below(mid) > k) {
        b = mid;
      } else {
        a = mid;
      }
    }
    return 0.5 * (a + b);
  };
  return {kth_eigenvalue(0), kth_eigenvalue(1)};
}

/// Two lowest eigenvalues of H(s) by Lanczos with full
/// reorthogonalization.
std::pair<double, double> TwoLowestEigenvalues(
    const std::vector<double>& energies, int num_qubits, double s, Rng* rng) {
  const std::size_t dim = energies.size();
  const int m = std::min<int>(static_cast<int>(dim), 70);
  std::vector<std::vector<double>> basis;
  std::vector<double> alpha;
  std::vector<double> beta;
  std::vector<double> v(dim);
  for (double& x : v) x = rng->NextGaussian();
  auto normalize = [](std::vector<double>* vec) {
    double norm = 0.0;
    for (double x : *vec) norm += x * x;
    norm = std::sqrt(norm);
    for (double& x : *vec) x /= norm;
    return norm;
  };
  normalize(&v);
  std::vector<double> w(dim);
  for (int k = 0; k < m; ++k) {
    basis.push_back(v);
    HamiltonianMatVec(energies, num_qubits, s, v, &w);
    double a = 0.0;
    for (std::size_t j = 0; j < dim; ++j) a += v[j] * w[j];
    alpha.push_back(a);
    // w -= a v + (beta_{k-1}) v_{k-1}, then full reorthogonalization.
    for (std::size_t j = 0; j < dim; ++j) w[j] -= a * v[j];
    if (k > 0) {
      const double b = beta.back();
      for (std::size_t j = 0; j < dim; ++j) {
        w[j] -= b * basis[static_cast<std::size_t>(k - 1)][j];
      }
    }
    for (const auto& u : basis) {
      double overlap = 0.0;
      for (std::size_t j = 0; j < dim; ++j) overlap += u[j] * w[j];
      for (std::size_t j = 0; j < dim; ++j) w[j] -= overlap * u[j];
    }
    double norm = 0.0;
    for (double x : w) norm += x * x;
    norm = std::sqrt(norm);
    if (norm < 1e-12 || k + 1 == m) break;
    beta.push_back(norm);
    for (std::size_t j = 0; j < dim; ++j) v[j] = w[j] / norm;
  }
  if (alpha.size() < 2) {
    // Krylov space collapsed (dim 1): duplicate the single value.
    return {alpha[0], alpha[0]};
  }
  return TridiagTwoSmallest(alpha, beta);
}

}  // namespace

StatusOr<AdiabaticResult> TrySolveQuboAdiabatically(
    const QuboModel& qubo, const AdiabaticOptions& options) {
  QQO_TRACE_SPAN("adiabatic.evolve");
  const int n = qubo.NumVariables();
  if (n < 1) return InvalidArgumentError("QUBO has no variables");
  if (n > kMaxAdiabaticQubits) {
    return ResourceExhaustedError(StrFormat(
        "adiabatic evolution needs %d qubits; the dense propagator supports "
        "at most %d",
        n, kMaxAdiabaticQubits));
  }
  if (options.steps < 1 || !(options.total_time > 0.0) || options.shots < 1) {
    return InvalidArgumentError(
        "adiabatic options out of range (need steps >= 1, total_time > 0, "
        "shots >= 1)");
  }
  QOPT_RETURN_IF_ERROR(options.deadline.Check());
  QOPT_FAULT_POINT("statevector.alloc");  // 2^n table + amplitude buffer
  const IsingModel ising = QuboToIsing(qubo);
  const std::vector<double> energies = IsingEnergyTable(ising);

  // Start in the uniform superposition (ground state of -sum X).
  const std::size_t dim = std::size_t{1} << n;
  std::vector<Complex> amplitudes(dim, Complex(1.0 / std::sqrt(dim), 0.0));

  const double dt = options.total_time / options.steps;
  // QQO_LOOP(adiabatic.step)
  for (int step = 0; step < options.steps; ++step) {
    QQO_COUNT("adiabatic.steps", 1);
    // A partially evolved state cannot be sampled meaningfully; abort at
    // the step boundary when the budget runs out.
    QOPT_RETURN_IF_ERROR(options.deadline.Check());
    const double s = (step + 0.5) / options.steps;
    // Problem slice: diagonal phases exp(-i dt s E_j).
    for (std::size_t j = 0; j < dim; ++j) {
      amplitudes[j] *= std::exp(Complex(0.0, -dt * s * energies[j]));
    }
    // Mixer slice: exp(-i dt (1-s) H_B) = prod_q exp(+i dt (1-s) X_q).
    ApplyMixerSlice(&amplitudes, n, dt * (1.0 - s));
  }

  // Ground-state probability.
  const double ground_energy =
      *std::min_element(energies.begin(), energies.end());
  AdiabaticResult result;
  for (std::size_t j = 0; j < dim; ++j) {
    if (energies[j] <= ground_energy + 1e-9) {
      result.ground_state_probability += std::norm(amplitudes[j]);
    }
  }
  // Sample and keep the best-energy shot.
  std::vector<double> cumulative(dim);
  double total = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    total += std::norm(amplitudes[j]);
    cumulative[j] = total;
  }
  Rng rng(options.seed);
  std::size_t best_index = 0;
  double best_energy = energies[0];
  bool first = true;
  for (int shot = 0; shot < options.shots; ++shot) {
    const double r = rng.NextDouble() * total;
    const std::size_t index = static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), r) -
        cumulative.begin());
    const std::size_t clamped = std::min(index, dim - 1);
    if (first || energies[clamped] < best_energy) {
      best_energy = energies[clamped];
      best_index = clamped;
      first = false;
    }
  }
  result.best_bits.assign(static_cast<std::size_t>(n), 0);
  for (int q = 0; q < n; ++q) {
    result.best_bits[static_cast<std::size_t>(q)] =
        static_cast<std::uint8_t>((best_index >> q) & 1u);
  }
  // The Ising energy table is offset-consistent with the QUBO.
  result.best_energy = qubo.Energy(result.best_bits);
  return result;
}

SpectralGap MinimumSpectralGap(const IsingModel& problem, int sweep_points) {
  QOPT_CHECK(sweep_points >= 2);
  QOPT_CHECK_MSG(problem.NumSpins() <= 12,
                 "spectral-gap sweep too large");
  const std::vector<double> energies = IsingEnergyTable(problem);
  Rng rng(12345);
  SpectralGap gap;
  bool first = true;
  for (int p = 0; p < sweep_points; ++p) {
    const double s = static_cast<double>(p) / (sweep_points - 1);
    const auto [e0, e1] =
        TwoLowestEigenvalues(energies, problem.NumSpins(), s, &rng);
    const double g = e1 - e0;
    if (first || g < gap.min_gap) {
      gap.min_gap = g;
      gap.at_s = s;
      first = false;
    }
  }
  return gap;
}

}  // namespace qopt
