// Reproduces Fig. 13: circuit depth of the join-ordering QUBO circuits vs
// the number of qubits (21..30 on 3-relation inputs), comparing
//  - strategy 1 (grow the problem by adding predicates) vs
//  - strategy 2 (grow it by lowering the precision factor omega),
//  - QAOA vs VQE, and
//  - the optimal topology vs IBM-Q Brooklyn (mean over transpilations).
//
// Expected shape: strategy 2 yields substantially deeper QAOA circuits at
// equal qubit counts (~57% at 30 qubits on the optimal topology, more
// after routing); all VQE depths on Brooklyn far exceed the coherence
// budget of 178, while strategy-1 QAOA stays close to it.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/device_model.h"
#include "bilp/bilp_to_qubo.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "qubo/conversions.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"
#include "variational/vqe_ansatz.h"

namespace {

using namespace qopt;

QuboModel MakeStrategyQubo(bool strategy2, int step) {
  // step 0..3 -> 21, 24, 27, 30 qubits for both strategies.
  QueryGraph graph({10.0, 10.0, 10.0});
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0};
  if (strategy2) {
    options.precision_decimals = step;  // omega = 10^-step
  } else {
    if (step >= 1) graph.AddPredicate(0, 1, 0.5);
    if (step >= 2) graph.AddPredicate(1, 2, 0.5);
    if (step >= 3) graph.AddPredicate(0, 2, 0.5);
  }
  return EncodeBilpAsQubo(EncodeJoinOrderAsBilp(graph, options).bilp).qubo;
}

}  // namespace

int main() {
  using qopt_bench::PrintHeader;
  using qopt_bench::Samples;
  PrintHeader("Figure 13", "join ordering circuit depths vs qubits");
  const int trials = Samples(qopt_bench::FastMode() ? 5 : 20);
  std::printf("(%d transpilations per device point)\n\n", trials);

  const CouplingMap brooklyn = MakeBrooklyn65();
  const int budget = BrooklynDevice().MaxReliableDepth();

  std::printf("Left chart — QAOA, strategies 1 (predicates) and 2 (omega):\n");
  TablePrinter left({"qubits", "s1 optimal", "s1 brooklyn", "s2 optimal",
                     "s2 brooklyn"});
  for (int step = 0; step <= 3; ++step) {
    const QuboModel s1 = MakeStrategyQubo(false, step);
    const QuboModel s2 = MakeStrategyQubo(true, step);
    const QuantumCircuit qaoa1 = BuildQaoaTemplate(QuboToIsing(s1));
    const QuantumCircuit qaoa2 = BuildQaoaTemplate(QuboToIsing(s2));
    const CouplingMap full1 = MakeFullyConnected(qaoa1.NumQubits());
    const CouplingMap full2 = MakeFullyConnected(qaoa2.NumQubits());
    left.AddRow({static_cast<double>(s1.NumVariables()),
                 TranspiledDepthStats(qaoa1, full1, 1).mean,
                 TranspiledDepthStats(qaoa1, brooklyn, trials).mean,
                 TranspiledDepthStats(qaoa2, full2, 1).mean,
                 TranspiledDepthStats(qaoa2, brooklyn, trials).mean},
                1);
  }
  left.Print();

  std::printf("\nRight chart — QAOA (strategy 2) vs VQE:\n");
  TablePrinter right({"qubits", "qaoa optimal", "qaoa brooklyn",
                      "vqe optimal", "vqe brooklyn"});
  for (int step = 0; step <= 3; ++step) {
    const QuboModel s2 = MakeStrategyQubo(true, step);
    const int n = s2.NumVariables();
    const QuantumCircuit qaoa = BuildQaoaTemplate(QuboToIsing(s2));
    const QuantumCircuit vqe = BuildVqeTemplate(n, 3);
    const CouplingMap full = MakeFullyConnected(n);
    right.AddRow({static_cast<double>(n),
                  TranspiledDepthStats(qaoa, full, 1).mean,
                  TranspiledDepthStats(qaoa, brooklyn, trials).mean,
                  TranspiledDepthStats(vqe, full, 1).mean,
                  TranspiledDepthStats(vqe, brooklyn, trials).mean},
                 1);
  }
  right.Print();

  const QuboModel s1_30 = MakeStrategyQubo(false, 3);
  const QuboModel s2_30 = MakeStrategyQubo(true, 3);
  const double d1 = TranspiledDepthStats(BuildQaoaTemplate(QuboToIsing(s1_30)),
                                         MakeFullyConnected(30), 1)
                        .mean;
  const double d2 = TranspiledDepthStats(BuildQaoaTemplate(QuboToIsing(s2_30)),
                                         MakeFullyConnected(30), 1)
                        .mean;
  std::printf("\nStrategy 2 overhead at 30 qubits (optimal topology): "
              "+%.0f%% (paper: ~57%%)\n",
              100.0 * (d2 / d1 - 1.0));
  std::printf("Brooklyn coherence budget (Eq. 55): depth %d — all VQE "
              "points must exceed it.\n",
              budget);
  return 0;
}
