// Ablation: how much of the transpiled-depth result depends on the
// router's heuristics. Compares routed depths on IBM-Q Mumbai with
//  (a) commutation-aware reordering of diagonal (QAOA cost) layers and
//      lookahead tie-breaking (the default),
//  (b) lookahead only,
//  (c) neither (naive in-order routing with random tie-breaks).
// Expected: commutation awareness is worth ~2x on QAOA circuits and
// nothing on VQE (whose CX blocks do not commute); lookahead helps both.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/conversions.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"
#include "variational/vqe_ansatz.h"

namespace {

using namespace qopt;

double MeanDepthWith(const QuantumCircuit& circuit, const CouplingMap& device,
                     bool commute, int lookahead, int trials) {
  std::vector<double> depths;
  for (int t = 0; t < trials; ++t) {
    TranspileOptions options;
    options.seed = static_cast<std::uint64_t>(t);
    options.router.commute_diagonal = commute;
    options.router.lookahead = lookahead;
    depths.push_back(TryTranspile(circuit, device, options).value().depth);
  }
  return Mean(depths);
}

}  // namespace

int main() {
  using qopt_bench::PrintHeader;
  PrintHeader("Ablation", "router heuristics vs transpiled depth (Mumbai)");
  const int trials = qopt_bench::Samples(10);

  const CouplingMap mumbai = MakeMumbai27();
  MqoGeneratorOptions gen;
  gen.num_queries = 5;
  gen.plans_per_query = 4;
  gen.saving_density = 0.1;
  gen.seed = 11;
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
  const QuantumCircuit qaoa = BuildQaoaTemplate(QuboToIsing(encoding.qubo));
  const QuantumCircuit vqe = BuildVqeTemplate(20, 3);

  TablePrinter table({"circuit", "commute+lookahead", "lookahead only",
                      "neither"});
  table.AddRow({"QAOA (20 plans MQO)",
                StrFormat("%.1f", MeanDepthWith(qaoa, mumbai, true, 8, trials)),
                StrFormat("%.1f", MeanDepthWith(qaoa, mumbai, false, 8, trials)),
                StrFormat("%.1f", MeanDepthWith(qaoa, mumbai, false, 0, trials))});
  table.AddRow({"VQE (20 qubits)",
                StrFormat("%.1f", MeanDepthWith(vqe, mumbai, true, 8, trials)),
                StrFormat("%.1f", MeanDepthWith(vqe, mumbai, false, 8, trials)),
                StrFormat("%.1f", MeanDepthWith(vqe, mumbai, false, 0, trials))});
  table.Print();
  std::printf(
      "\nCommutation-aware routing exploits that all RZZ cost terms of one\n"
      "QAOA layer commute; Qiskit's transpiler benefits from the same\n"
      "freedom, which is why reproducing the paper's device depths needs\n"
      "it. VQE gains nothing from commutation (non-commuting CX blocks).\n");
  return 0;
}
