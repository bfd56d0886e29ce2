// Adiabatic evolution walkthrough (Sec. 3.5 of the paper): encode a small
// join ordering problem as a QUBO, sweep the annealing time T, and watch
// the ground-state probability obey the adiabatic theorem. Also inspects
// the minimum spectral gap that dictates the required T (Eq. 24), and
// contrasts bushy vs left-deep join trees on the same query.
//
// Build & run:  ./build/examples/adiabatic_evolution

#include <cstdio>

#include "bilp/bilp_to_qubo.h"
#include "common/table_printer.h"
#include "joinorder/join_order_baselines.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/join_tree.h"
#include "joinorder/query_graph.h"
#include "qubo/brute_force_solver.h"
#include "qubo/conversions.h"
#include "variational/adiabatic.h"

int main() {
  using namespace qopt;

  // Three relations, one selective predicate: the Sec. 6.1.2 model.
  QueryGraph graph({10.0, 10.0, 10.0});
  graph.AddPredicate(0, 1, 0.1);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0};
  encoder.safe_slack_bounds = true;
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, encoder);
  const BilpQuboEncoding qubo = EncodeBilpAsQubo(encoding.bilp);
  std::printf("Join-ordering QUBO: %d qubits, %d quadratic terms\n\n",
              qubo.qubo.NumVariables(), qubo.qubo.NumQuadraticTerms());

  // Adiabatic evolution is exponential in qubits; 25 qubits = 2^25
  // amplitudes, which the statevector handles but slowly — demonstrate on
  // a reduced MQO-style instance instead and keep the join-ordering QUBO
  // for the exact solver.
  QuboBuilder terms(8);
  {
    const BruteForceResult exact = TrySolveQuboBruteForce(qubo.qubo).value();
    std::vector<int> order;
    if (DecodeJoinOrder(encoding, exact.best_bits, &order)) {
      std::printf("Exact QUBO ground state joins R%d and R%d first "
                  "(the selective pair), C_out %.0f\n\n",
                  order[0], order[1], CoutCost(graph, order));
    }
    // 8-variable demo Hamiltonian: pick one of 4, pick one of 4.
    for (int i = 0; i < 8; ++i) terms.AddLinear(i, -10.0 + i * 0.5);
    for (int g = 0; g < 2; ++g) {
      for (int a = 4 * g; a < 4 * (g + 1); ++a) {
        for (int b = a + 1; b < 4 * (g + 1); ++b) {
          terms.AddQuadratic(a, b, 25.0);
        }
      }
    }
  }
  const QuboModel demo = std::move(terms).Build();

  std::printf("Adiabatic theorem on an 8-qubit constraint Hamiltonian:\n");
  TablePrinter sweep({"annealing time T", "P(ground state)"});
  for (double total_time : {0.5, 2.0, 8.0, 32.0}) {
    AdiabaticOptions options;
    options.total_time = total_time;
    options.steps = 400;
    const AdiabaticResult result =
        TrySolveQuboAdiabatically(demo, options).value();
    sweep.AddRow({total_time, result.ground_state_probability}, 3);
  }
  sweep.Print();

  const SpectralGap gap = MinimumSpectralGap(QuboToIsing(demo), 31);
  std::printf("\nMinimum spectral gap: %.3f at s = %.2f -> Eq. 24 wants "
              "T >> %.2f\n",
              gap.min_gap, gap.at_s, 1.0 / (gap.min_gap * gap.min_gap));

  // Bushy vs left-deep on a slightly larger query.
  QueryGeneratorOptions gen;
  gen.num_relations = 8;
  gen.num_predicates = 10;
  gen.cardinality_min = 100.0;
  gen.cardinality_max = 100000.0;
  gen.selectivity_min = 0.0002;
  gen.selectivity_max = 0.05;
  gen.seed = 13;
  const QueryGraph big = GenerateRandomQuery(gen);
  const JoinOrderSolution left_deep = SolveJoinOrderDp(big);
  const BushyDpResult bushy = SolveJoinOrderBushyDp(big);
  std::printf("\n8-relation query: optimal left-deep C_out %.3g vs optimal "
              "bushy %.3g\n",
              left_deep.cost, bushy.cost);
  std::printf("bushy tree: %s\n", bushy.tree.ToString().c_str());
  std::printf("(The paper restricts itself to left-deep trees; bushy DP is\n"
              "the [16]-style extension its future-work section names.)\n");
  return 0;
}
