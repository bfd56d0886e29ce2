// Quickstart: solve a small multi query optimization problem with every
// backend of the library — classical oracle, simulated annealing, the two
// hybrid quantum-classical algorithms (QAOA, VQE) on the statevector
// simulator, Trotterized adiabatic evolution, and an emulated quantum
// annealer (minor embedding into a Pegasus fabric + annealing).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "common/table_printer.h"
#include "core/quantum_optimizer.h"
#include "mqo/mqo_generator.h"

int main() {
  using namespace qopt;

  // The paper's example workload (Tables 1 and 2): three queries with
  // eight alternative plans and five pairwise cost savings.
  const MqoProblem problem = MakePaperExampleMqo();
  std::printf("MQO problem: %d queries, %d plans, %d savings\n",
              problem.NumQueries(), problem.NumPlans(), problem.NumSavings());
  std::printf("Locally optimal (greedy) cost: %.0f\n",
              SolveMqoGreedy(problem).cost);

  TablePrinter table({"backend", "valid", "cost", "plans (query: plan)"});
  for (Backend backend :
       {Backend::kExact, Backend::kSimulatedAnnealing, Backend::kQaoa,
        Backend::kVqe, Backend::kAdiabatic, Backend::kAnnealerEmulation}) {
    OptimizerOptions options;
    options.backend = backend;
    options.seed = 7;
    options.variational.max_iterations = 200;
    options.variational.shots = 4096;
    options.pegasus_m = 3;
    options.embedded.anneal.num_reads = 50;
    options.embedded.anneal.num_sweeps = 2000;
    const MqoSolveReport report = TrySolveMqo(problem, options).value();
    std::string plans;
    if (report.valid) {
      for (int q = 0; q < problem.NumQueries(); ++q) {
        plans += StrFormat("%d:%d ", q,
                           report.solution.selection[static_cast<std::size_t>(q)]);
      }
    }
    table.AddRow({BackendName(backend), report.valid ? "yes" : "no",
                  report.valid ? StrFormat("%.0f", report.solution.cost) : "-",
                  plans});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nThe optimal batch cost is 21 (plans 2, 4 and 8 in the paper's\n"
      "numbering), beating the locally optimal 26 by exploiting shared\n"
      "subexpressions.\n");
  return 0;
}
