// Annealer embedding walkthrough: encode a join ordering problem as a
// QUBO, minor-embed its interaction graph into D-Wave topologies (Chimera
// as on the 2X, Pegasus as on the Advantage) and compare chain statistics
// — the machinery behind the paper's Fig. 14.
//
// Build & run:  ./build/examples/annealer_embedding

#include <cstdio>

#include "anneal/chimera.h"
#include "anneal/embedding_composite.h"
#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "common/table_printer.h"
#include "bilp/bilp_to_qubo.h"
#include "joinorder/join_order.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "qubo/brute_force_solver.h"

int main() {
  using namespace qopt;

  // 4-relation chain query, 1 threshold, omega = 1.
  QueryGraph graph({10.0, 100.0, 100.0, 1000.0});
  graph.AddPredicate(0, 1, 0.1);
  graph.AddPredicate(1, 2, 0.05);
  graph.AddPredicate(2, 3, 0.2);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {100.0};
  encoder.safe_slack_bounds = true;
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, encoder);
  const BilpQuboEncoding qubo = EncodeBilpAsQubo(encoding.bilp);
  const SimpleGraph source = qubo.qubo.InteractionGraph();
  std::printf("Join-ordering QUBO: %d logical qubits, %d quadratic terms "
              "(max degree %d)\n\n",
              source.NumVertices(), qubo.qubo.NumQuadraticTerms(),
              source.MaxDegree());

  TablePrinter table({"topology", "fabric qubits", "physical qubits",
                      "mean chain", "max chain"});
  struct Target {
    const char* name;
    SimpleGraph graph;
  };
  for (Target& target :
       std::vector<Target>{{"Chimera C(8,8,4)  [2X-like]", MakeChimera(8, 8, 4)},
                           {"Pegasus P6        [Advantage-like]", MakePegasus(6)},
                           {"Pegasus P16       [Advantage]", MakePegasus(16)}}) {
    EmbedOptions options;
    options.seed = 7;
    const auto embedding =
        TryFindMinorEmbedding(source, target.graph, options);
    if (!embedding.ok()) {
      table.AddRow({target.name, StrFormat("%d", target.graph.NumVertices()),
                    "no embedding found", "-", "-"});
      continue;
    }
    table.AddRow({target.name, StrFormat("%d", target.graph.NumVertices()),
                  StrFormat("%d", embedding->NumPhysicalQubits()),
                  StrFormat("%.2f", embedding->MeanChainLength()),
                  StrFormat("%d", embedding->MaxChainLength())});
  }
  table.Print();

  // Full embedded solve on the small Pegasus fabric and a ground-truth
  // check via simulated annealing on the unembedded QUBO.
  EmbeddedSolveOptions solve_options;
  solve_options.embed.seed = 7;
  solve_options.anneal.num_reads = 200;
  solve_options.anneal.num_sweeps = 8000;
  solve_options.anneal.seed = 7;
  const auto result =
      TrySolveQuboOnTopology(qubo.qubo, MakePegasus(6), solve_options);
  if (result.ok()) {
    std::vector<int> order;
    const bool valid = DecodeJoinOrder(encoding, result->bits, &order);
    std::printf("\nEmbedded anneal on Pegasus P6: energy %.2f, chain breaks "
                "%.1f%%, decoded order %s\n",
                result->energy, 100.0 * result->chain_break_fraction,
                valid ? "valid" : "invalid");
    if (valid) {
      std::printf("  join order:");
      for (int r : order) std::printf(" R%d", r);
      std::printf("  (C_out %.0f)\n", CoutCost(graph, order));
    }
  } else {
    std::printf("\nNo embedding found for the solve.\n");
  }
  return 0;
}
