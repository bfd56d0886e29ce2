#include "variational/variational_solver.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <unordered_map>

#include "circuit/statevector.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qubo/conversions.h"
#include "variational/optimizers.h"
#include "variational/qaoa.h"

namespace qopt {
namespace {

/// The input both statevector solvers accept, checked before their first
/// deadline poll: a non-empty QUBO within the register cap, then the ranges
/// of the options the solver reads (QAOA also reads qaoa_reps; VQE's depth
/// is fixed).
Status ValidateVariationalInput(const QuboModel& qubo,
                                const VariationalOptions& options, bool qaoa) {
  const char* method = qaoa ? "QAOA" : "VQE";
  const int n = qubo.NumVariables();
  if (n < 1) return InvalidArgumentError("QUBO has no variables");
  if (n > kMaxStatevectorQubits) {
    return ResourceExhaustedError(StrFormat(
        "%s circuit needs %d qubits; the statevector simulator supports at "
        "most %d",
        method, n, kMaxStatevectorQubits));
  }
  if ((qaoa && options.qaoa_reps < 1) || options.max_iterations < 1 ||
      options.shots < 1) {
    return InvalidArgumentError(
        StrFormat("%s options out of range (need %smax_iterations >= 1, "
                  "shots >= 1)",
                  method, qaoa ? "qaoa_reps >= 1, " : ""));
  }
  return OkStatus();
}

/// The non-OK status to report for an interrupted stage: the deadline's
/// own verdict when available, kDeadlineExceeded otherwise.
Status InterruptionStatus(const Deadline& deadline) {
  Status check = deadline.Check();
  if (!check.ok()) return check;
  return DeadlineExceededError("variational optimization interrupted");
}

/// Simulates `circuit` into `state` (reusing its buffer), samples `shots`
/// bit strings via a cumulative-distribution binary search and returns the
/// one with the lowest QUBO energy together with the state expectation.
/// `energies` is the precomputed IsingEnergyTable of `ising`.
StatusOr<VariationalResult> FinalizeFromCircuit(
    const QuboModel& qubo, QuantumCircuit circuit,
    const std::vector<double>& energies, const VariationalOptions& options,
    int evaluations, Statevector* state) {
  QQO_TRACE_SPAN("variational.sample");
  state->Reset();
  QOPT_RETURN_IF_ERROR(state->ApplyCircuit(circuit, options.deadline));
  VariationalResult result;
  result.expectation = state->EnergyExpectation(energies);
  // The cumulative distribution is built once; each shot then costs one
  // RNG draw plus a binary search instead of a 2^n scan. Shots landing on
  // an already-scored basis state reuse its energy.
  const std::vector<double> cdf = state->CumulativeProbabilities();
  std::unordered_map<std::size_t, double> energy_of_state;
  auto score = [&](const std::vector<std::uint8_t>& bits) {
    std::size_t index = 0;
    for (std::size_t q = 0; q < bits.size(); ++q) {
      index |= static_cast<std::size_t>(bits[q]) << q;
    }
    const auto it = energy_of_state.find(index);
    if (it != energy_of_state.end()) return it->second;
    const double energy = qubo.Energy(bits);
    energy_of_state.emplace(index, energy);
    return energy;
  };
  Rng rng(options.seed + 0x5EED);
  result.best_bits = state->SampleFromCdf(cdf, &rng);
  result.best_energy = score(result.best_bits);
  for (int s = 1; s < options.shots; ++s) {
    const std::vector<std::uint8_t> bits = state->SampleFromCdf(cdf, &rng);
    const double energy = score(bits);
    if (energy < result.best_energy) {
      result.best_energy = energy;
      result.best_bits = bits;
    }
  }
  result.optimal_circuit = std::move(circuit);
  result.evaluations = evaluations;
  return result;
}

}  // namespace

StatusOr<VariationalResult> TrySolveQuboWithQaoa(
    const QuboModel& qubo, const VariationalOptions& options) {
  QQO_TRACE_SPAN("variational.qaoa");
  QOPT_RETURN_IF_ERROR(
      ValidateVariationalInput(qubo, options, /*qaoa=*/true));
  QOPT_RETURN_IF_ERROR(options.deadline.Check());
  QOPT_FAULT_POINT("statevector.alloc");  // 2^n energy table comes first
  const IsingModel ising = QuboToIsing(qubo);
  const std::vector<double> energies = IsingEnergyTable(ising);
  const int n = qubo.NumVariables();
  const int p = options.qaoa_reps;

  // theta = (gamma_1..gamma_p, beta_1..beta_p); initialized with zeros as
  // in the paper's QAOA setup (Sec. 5.2.2).
  auto split = [p](const std::vector<double>& theta) {
    const std::vector<double> gammas(theta.begin(), theta.begin() + p);
    const std::vector<double> betas(theta.begin() + p, theta.end());
    return std::make_pair(gammas, betas);
  };
  // Each objective owns one statevector buffer and reuses it (plus the
  // shared energy table) across every evaluation of the outer loop — no
  // 2^n reallocation or energy-table rebuild per call.
  auto make_objective = [&](Statevector* state) {
    return Objective([&, state](const std::vector<double>& theta) {
      const auto [gammas, betas] = split(theta);
      state->Reset();
      // An evaluation cut short by the deadline must not feed a half-built
      // state into the optimizer; +inf makes the point uncompetitive and
      // the outer loop's own deadline check terminates the sweep.
      if (!state
               ->ApplyCircuit(BuildQaoaCircuit(ising, gammas, betas),
                              options.deadline)
               .ok()) {
        return std::numeric_limits<double>::infinity();
      }
      return state->EnergyExpectation(energies);
    });
  };

  // Multi-start: the all-zero start of the paper's setup, the INTERP-style
  // linear ramp (gamma rising, beta falling — the adiabatic-inspired
  // schedule that works well for p > 1), and one random point.
  std::vector<std::vector<double>> starts;
  starts.emplace_back(static_cast<std::size_t>(2 * p), 0.0);
  {
    std::vector<double> ramp(static_cast<std::size_t>(2 * p));
    for (int l = 0; l < p; ++l) {
      const double frac = (l + 0.5) / p;
      ramp[static_cast<std::size_t>(l)] = 0.4 * frac;            // gamma
      ramp[static_cast<std::size_t>(p + l)] = 0.4 * (1 - frac);  // beta
    }
    starts.push_back(std::move(ramp));
  }
  {
    Rng rng(options.seed + 17);
    std::vector<double> random_start(static_cast<std::size_t>(2 * p));
    for (double& v : random_start) v = rng.NextDouble(-0.5, 0.5);
    starts.push_back(std::move(random_start));
  }

  // The starts are independent outer-loop runs; results land in the slot
  // of their start, and the winner is picked by scanning slots in order,
  // so the outcome matches the serial sweep at any thread count. Starts
  // not yet claimed when the deadline trips are skipped.
  std::vector<OptimizeResult> candidates(starts.size());
  std::vector<Status> start_status(starts.size());
  const Status loop_status = ThreadPool::Default().ParallelFor(
      starts.size(), options.deadline, [&](std::size_t s) {
        QQO_TRACE_SPAN("variational.start");
        QQO_COUNT("variational.starts", 1);
        // Each start allocates its own 2^n statevector buffer.
        if (Status fault = CheckFaultPoint("statevector.alloc"); !fault.ok()) {
          start_status[s] = std::move(fault);
          return;
        }
        Statevector state(n);
        const Objective objective = make_objective(&state);
        candidates[s] =
            MinimizeNelderMead(objective, starts[s], options.max_iterations,
                               /*tolerance=*/1e-6, options.deadline);
      });
  for (const Status& status : start_status) {
    if (!status.ok()) return status;
  }
  QOPT_RETURN_IF_ERROR(loop_status);
  OptimizeResult opt = candidates[0];
  int total_evaluations = candidates[0].evaluations;
  bool interrupted = candidates[0].interrupted;
  for (std::size_t s = 1; s < candidates.size(); ++s) {
    total_evaluations += candidates[s].evaluations;
    interrupted = interrupted || candidates[s].interrupted;
    if (candidates[s].fval < opt.fval) opt = candidates[s];
  }
  if (interrupted) return InterruptionStatus(options.deadline);
  opt.evaluations = total_evaluations;

  const auto [gammas, betas] = split(opt.x);
  QOPT_FAULT_POINT("statevector.alloc");  // final sampling buffer
  Statevector state(n);
  return FinalizeFromCircuit(qubo, BuildQaoaCircuit(ising, gammas, betas),
                             energies, options, opt.evaluations, &state);
}

StatusOr<VariationalResult> TrySolveQuboWithVqe(
    const QuboModel& qubo, const VariationalOptions& options) {
  QQO_TRACE_SPAN("variational.vqe");
  QOPT_RETURN_IF_ERROR(
      ValidateVariationalInput(qubo, options, /*qaoa=*/false));
  QOPT_RETURN_IF_ERROR(options.deadline.Check());
  QOPT_FAULT_POINT("statevector.alloc");
  const IsingModel ising = QuboToIsing(qubo);
  const std::vector<double> energies = IsingEnergyTable(ising);
  const int n = qubo.NumVariables();
  const int num_params = RealAmplitudesNumParameters(n);

  Statevector state(n);
  Objective objective = [&](const std::vector<double>& theta) {
    state.Reset();
    // Same contract as the QAOA objective: a deadline-truncated evaluation
    // returns +inf instead of the energy of a half-applied ansatz.
    if (!state.ApplyCircuit(BuildRealAmplitudes(n, theta), options.deadline)
             .ok()) {
      return std::numeric_limits<double>::infinity();
    }
    return state.EnergyExpectation(energies);
  };

  // Small random angles break the symmetry of the all-zero start (an RY(0)
  // ansatz would stay in |0..0> for Nelder-Mead's degenerate directions).
  Rng rng(options.seed);
  std::vector<double> x0(static_cast<std::size_t>(num_params));
  for (double& v : x0) {
    v = rng.NextDouble(-std::numbers::pi / 8.0, std::numbers::pi / 8.0);
  }
  OptimizeResult opt =
      MinimizeNelderMead(objective, x0, options.max_iterations,
                         /*tolerance=*/1e-6, options.deadline);
  if (opt.interrupted) return InterruptionStatus(options.deadline);
  return FinalizeFromCircuit(qubo, BuildRealAmplitudes(n, opt.x), energies,
                             options, opt.evaluations, &state);
}

}  // namespace qopt
