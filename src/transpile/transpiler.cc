#include "transpile/transpiler.h"

#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transpile/basis_decomposer.h"
#include "transpile/layout.h"
#include "transpile/swap_router.h"

namespace qopt {

StatusOr<TranspileResult> TryTranspile(const QuantumCircuit& circuit,
                                       const CouplingMap& coupling,
                                       const TranspileOptions& options) {
  QQO_TRACE_SPAN("transpile.pipeline");
  QQO_COUNT("transpile.routing_seeds", 1);
  QOPT_CHECK_MSG(circuit.NumQubits() <= coupling.NumQubits(),
                 "circuit does not fit on the device");
  QOPT_RETURN_IF_ERROR(options.deadline.Check());
  Rng rng(options.seed);
  const std::vector<int> layout =
      coupling.IsFullyConnected() ? TrivialLayout(circuit.NumQubits())
                                  : DenseLayout(coupling, circuit.NumQubits());

  // The pipeline deadline also bounds the router's per-gate checks.
  RouterOptions router_options = options.router;
  router_options.deadline =
      router_options.deadline.unbounded() &&
              router_options.deadline.token() == nullptr
          ? options.deadline
          : router_options.deadline;
  QOPT_ASSIGN_OR_RETURN(
      RoutedCircuit routed,
      TryRouteCircuit(circuit, coupling, layout, &rng, router_options));

  TranspileResult result;
  result.initial_layout = std::move(routed.initial_layout);
  result.final_layout = std::move(routed.final_layout);
  QuantumCircuit transformed = std::move(routed.circuit);
  QOPT_RETURN_IF_ERROR(options.deadline.Check());
  transformed = DecomposeToBasis(transformed);
  QOPT_RETURN_IF_ERROR(options.deadline.Check());
  transformed = MergeAdjacentRz(transformed);
  result.depth = transformed.Depth();
  QQO_OBSERVE("transpile.depth", result.depth);
  result.circuit = std::move(transformed);
  return result;
}

StatusOr<std::vector<TranspileResult>> TryTranspileManySeeds(
    const QuantumCircuit& circuit, const CouplingMap& coupling,
    const std::vector<std::uint64_t>& seeds, const TranspileOptions& base) {
  QQO_TRACE_SPAN("transpile.sweep");
  std::vector<TranspileResult> results(seeds.size());
  std::vector<Status> trial_status(seeds.size());
  const Status loop_status = ThreadPool::Default().ParallelFor(
      seeds.size(), base.deadline, [&](std::size_t i) {
        TranspileOptions options = base;
        options.seed = seeds[i];
        StatusOr<TranspileResult> trial =
            TryTranspile(circuit, coupling, options);
        if (trial.ok()) {
          results[i] = *std::move(trial);
        } else {
          trial_status[i] = trial.status();
        }
      });
  for (const Status& status : trial_status) {
    if (!status.ok()) return status;
  }
  QOPT_RETURN_IF_ERROR(loop_status);
  return results;
}

Summary TranspiledDepthStats(const QuantumCircuit& circuit,
                             const CouplingMap& coupling, int num_trials,
                             std::uint64_t seed0) {
  QOPT_CHECK(num_trials >= 1);
  // A fully connected device is deterministic; one trial suffices.
  if (coupling.IsFullyConnected()) num_trials = 1;
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(num_trials));
  for (int t = 0; t < num_trials; ++t) {
    seeds[static_cast<std::size_t>(t)] =
        seed0 + static_cast<std::uint64_t>(t);
  }
  const std::vector<TranspileResult> results =
      TryTranspileManySeeds(circuit, coupling, seeds).value();
  std::vector<double> depths;
  depths.reserve(results.size());
  for (const TranspileResult& result : results) {
    depths.push_back(static_cast<double>(result.depth));
  }
  return Summarize(depths);
}

}  // namespace qopt
