// Join ordering scenario: the paper's R/S/T example query (Fig. 6 and
// Table 3) plus a 5-relation snowflake-ish query, solved classically
// (exhaustive, DP, greedy) and through the two-step BILP -> QUBO quantum
// pipeline of Ch. 6.
//
// Build & run:  ./build/examples/join_ordering

#include <cstdio>

#include "common/table_printer.h"
#include "core/quantum_optimizer.h"
#include "bilp/bilp_to_qubo.h"
#include "joinorder/join_order_baselines.h"

namespace {

std::string OrderToString(const std::vector<int>& order,
                          const char* names = nullptr) {
  std::string out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0) out += " |><| ";
    if (names != nullptr) {
      out += names[order[i]];
    } else {
      out += qopt::StrFormat("R%d", order[i]);
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace qopt;

  // --- Part 1: Table 3, reproduced ---------------------------------------
  const QueryGraph example = MakePaperExampleQuery();
  std::printf("Paper example (Fig. 6): |R|=10, |S|=1000, |T|=1000, "
              "f_RS=0.1, f_ST=0.05\n\n");
  TablePrinter table3({"join order", "C_out cost"});
  const char kNames[] = "RST";
  for (const std::vector<int>& order :
       {std::vector<int>{0, 1, 2}, {0, 2, 1}, {1, 2, 0}}) {
    table3.AddRow({OrderToString(order, kNames),
                   StrFormat("%.0f", CoutCost(example, order))});
  }
  table3.Print();

  const JoinOrderSolution best = SolveJoinOrderExhaustive(example);
  std::printf("\nOptimal order: %s with cost %.0f\n\n",
              OrderToString(best.order, kNames).c_str(), best.cost);

  // --- Part 2: quantum pipeline on the 3-relation model -------------------
  QueryGraph small({10.0, 10.0, 10.0});
  small.AddPredicate(0, 1, 0.1);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0};
  encoder.safe_slack_bounds = true;
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 60;
  options.anneal.num_sweeps = 2000;
  options.seed = 11;
  const JoinOrderSolveReport report =
      TrySolveJoinOrder(small, encoder, options).value();
  std::printf("BILP -> QUBO pipeline on the Sec. 6.1.2 example:\n"
              "  qubits: %d, quadratic terms: %d\n",
              report.qubits, report.quadratic_terms);
  if (report.valid) {
    std::printf("  decoded order: %s (C_out %.0f)\n\n",
                OrderToString(report.solution.order).c_str(),
                report.solution.cost);
  } else {
    std::printf("  solver returned an invalid assignment\n\n");
  }

  // --- Part 3: a larger query, classical comparison -----------------------
  QueryGeneratorOptions gen;
  gen.num_relations = 7;
  gen.num_predicates = 9;
  gen.cardinality_min = 100.0;
  gen.cardinality_max = 100000.0;
  gen.selectivity_min = 0.0005;
  gen.selectivity_max = 0.2;
  gen.seed = 42;
  const QueryGraph big = GenerateRandomQuery(gen);
  const JoinOrderSolution dp = SolveJoinOrderDp(big);
  const JoinOrderSolution greedy = SolveJoinOrderGreedy(big);
  const JoinOrderSolution exhaustive = SolveJoinOrderExhaustive(big);
  std::printf("7-relation random query (9 predicates):\n");
  TablePrinter compare({"algorithm", "order", "C_out cost"});
  compare.AddRow({"exhaustive", OrderToString(exhaustive.order),
                  StrFormat("%.3g", exhaustive.cost)});
  compare.AddRow({"subset DP", OrderToString(dp.order),
                  StrFormat("%.3g", dp.cost)});
  compare.AddRow({"greedy", OrderToString(greedy.order),
                  StrFormat("%.3g", greedy.cost)});
  compare.Print();
  std::printf("\nA quantum solve of this query would already need %lld "
              "logical qubits\n(1 threshold, omega = 1; Eq. 54).\n",
              CountJoinOrderQubits(7, 9, 1, 1.0).total);
  return 0;
}
