// MQO batch scenario: a randomly generated batch of reporting queries with
// shared subexpressions, optimized with the classical baselines (greedy,
// genetic, local search, exhaustive) and the QUBO pipeline, plus the gate-
// resource estimate an IBM-Q Mumbai deployment would need (Fig. 8/9 style).
//
// Build & run:  ./build/examples/mqo_batch

#include <cstdio>

#include "common/table_printer.h"
#include "core/device_model.h"
#include "core/quantum_optimizer.h"
#include "core/resource_estimator.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "transpile/ibm_topologies.h"

int main() {
  using namespace qopt;

  // A nightly batch: 4 reporting queries, 4 candidate plans each, dense
  // sharing opportunities.
  MqoGeneratorOptions gen;
  gen.num_queries = 4;
  gen.plans_per_query = 4;
  gen.cost_min = 10.0;
  gen.cost_max = 80.0;
  gen.saving_density = 0.35;
  gen.seed = 2022;
  const MqoProblem batch = GenerateMqoProblem(gen);
  std::printf("Batch: %d queries x %d plans, %d sharing opportunities\n\n",
              batch.NumQueries(), gen.plans_per_query, batch.NumSavings());

  // Classical optimizers.
  const MqoSolution exact = SolveMqoExhaustive(batch);
  const MqoSolution greedy = SolveMqoGreedy(batch);
  const MqoSolution genetic = SolveMqoGenetic(batch, {.seed = 1});
  const MqoSolution local = SolveMqoLocalSearch(batch, 10, 2);

  TablePrinter classical({"algorithm", "cost", "gap vs optimal"});
  auto gap = [&](double cost) {
    return StrFormat("%.1f%%", 100.0 * (cost - exact.cost) / exact.cost);
  };
  classical.AddRow({"exhaustive", StrFormat("%.2f", exact.cost), "0.0%"});
  classical.AddRow({"greedy (local plans)", StrFormat("%.2f", greedy.cost),
                    gap(greedy.cost)});
  classical.AddRow({"genetic [14]", StrFormat("%.2f", genetic.cost),
                    gap(genetic.cost)});
  classical.AddRow({"local search", StrFormat("%.2f", local.cost),
                    gap(local.cost)});
  classical.Print();

  // Quantum pipeline via simulated annealing (the D-Wave-style solve).
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 50;
  options.anneal.num_sweeps = 2000;
  options.seed = 3;
  const MqoSolveReport report = TrySolveMqo(batch, options).value();
  std::printf("\nQUBO pipeline (SA backend): valid=%s cost=%.2f "
              "(%d qubits, %d quadratic terms)\n",
              report.valid ? "yes" : "no",
              report.valid ? report.solution.cost : 0.0, report.qubits,
              report.quadratic_terms);

  // What would running this on IBM-Q Mumbai take?
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(batch);
  GateEstimateOptions estimate_options;
  estimate_options.transpile_trials = 10;
  const GateResourceEstimate estimate =
      EstimateGateResources(encoding.qubo, MakeMumbai27(), MumbaiDevice(),
                            estimate_options)
          .value();
  std::printf(
      "\nIBM-Q Mumbai resource estimate:\n"
      "  QAOA depth: %d (ideal) -> %.1f (routed), %s coherence budget %d\n"
      "  VQE  depth: %d (ideal) -> %.1f (routed), %s coherence budget %d\n",
      estimate.qaoa_depth_ideal, estimate.qaoa_depth_device,
      estimate.qaoa_within_coherence ? "within" : "EXCEEDS",
      estimate.max_reliable_depth, estimate.vqe_depth_ideal,
      estimate.vqe_depth_device,
      estimate.vqe_within_coherence ? "within" : "EXCEEDS",
      estimate.max_reliable_depth);
  return 0;
}
