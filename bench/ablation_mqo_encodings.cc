// Ablation: direct MQO -> QUBO encoding of [9] (Ch. 5) versus routing MQO
// through the generic BILP -> QUBO pipeline of Ch. 6. The direct encoding
// needs one qubit per plan; the BILP route pays 5 extra binary variables
// per saving (sharing indicator, complement and three slacks) — evidence
// for the paper's remark that problem-specific reformulations use qubits
// far more economically.

#include <cstdio>

#include "bench_util.h"
#include "anneal/simulated_annealer.h"
#include "bilp/bilp_to_qubo.h"
#include "common/table_printer.h"
#include "mqo/mqo_baselines.h"
#include "mqo/mqo_bilp_encoder.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"

int main() {
  using namespace qopt;
  qopt_bench::PrintHeader("Ablation",
                          "direct [9] vs BILP-based MQO QUBO encodings");

  TablePrinter table({"queries x ppq", "savings", "direct qubits",
                      "direct terms", "bilp qubits", "bilp terms",
                      "direct SA cost", "bilp SA cost", "optimal"});
  for (int queries : {3, 5, 8}) {
    MqoGeneratorOptions gen;
    gen.num_queries = queries;
    gen.plans_per_query = 4;
    gen.saving_density = 0.2;
    gen.seed = 77 + queries;
    const MqoProblem problem = GenerateMqoProblem(gen);
    const MqoSolution exact = SolveMqoExhaustive(problem);

    const MqoQuboEncoding direct = EncodeMqoAsQubo(problem);
    const MqoBilpEncoding bilp = EncodeMqoAsBilp(problem);
    const BilpQuboEncoding bilp_qubo = EncodeBilpAsQubo(bilp.bilp);

    AnnealOptions anneal;
    anneal.num_reads = 50;
    anneal.num_sweeps = 2000;
    anneal.seed = 3;
    const AnnealResult direct_sa =
        TrySolveQuboWithAnnealing(direct.qubo, anneal).value();
    const AnnealResult bilp_sa =
        TrySolveQuboWithAnnealing(bilp_qubo.qubo, anneal).value();

    std::vector<int> selection;
    const bool direct_valid =
        problem.DecodeBits(direct_sa.best_bits, &selection);
    const double direct_cost =
        direct_valid ? problem.SelectionCost(selection) : -1.0;
    const bool bilp_valid =
        DecodeMqoBilp(bilp, problem, bilp_sa.best_bits, &selection);
    const double bilp_cost =
        bilp_valid ? problem.SelectionCost(selection) : -1.0;

    table.AddRow({StrFormat("%d x 4", queries),
                  StrFormat("%d", problem.NumSavings()),
                  StrFormat("%d", direct.qubo.NumVariables()),
                  StrFormat("%d", direct.qubo.NumQuadraticTerms()),
                  StrFormat("%d", bilp_qubo.qubo.NumVariables()),
                  StrFormat("%d", bilp_qubo.qubo.NumQuadraticTerms()),
                  direct_valid ? StrFormat("%.2f", direct_cost) : "invalid",
                  bilp_valid ? StrFormat("%.2f", bilp_cost) : "invalid",
                  StrFormat("%.2f", exact.cost)});
  }
  table.Print();
  std::printf("\nThe direct encoding always needs fewer qubits and terms;\n"
              "both decode to (near-)optimal plans under the same SA budget\n"
              "on these sizes, but the BILP route exhausts hardware sooner.\n");
  return 0;
}
