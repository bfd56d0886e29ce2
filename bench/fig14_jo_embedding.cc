// Reproduces Fig. 14: physical qubits needed to minor-embed join-ordering
// QUBOs into the Pegasus P16 fabric of the D-Wave Advantage.
//  - Left chart: relations 6..14 for P = J, 2J, 3J (1 threshold, omega=1).
//  - Right chart: 8 relations, P = J, growing threshold counts for
//    omega = 1, 0.01 and 0.0001.
// Each point prints the mean physical-qubit count of the successful
// attempts with their min-max range. A point is reported only when the
// heuristic embedder succeeds in at least 50% of the attempts (the paper's
// reliability cutoff); a series stops after the first unreliable point.
//
// Expected shape: physical qubits ~ 2-5x the logical count, growing fast
// with relations/predicates; smaller omega and more thresholds push the
// feasibility frontier down dramatically (paper: P = J reaches 14
// relations, P = 3J only 10; at omega = 0.0001 only ~4 thresholds embed).
//
// This is by far the most expensive benchmark (minutes). Paper setting is
// 20 embeddings per point; default here is 3 (QQO_BENCH_SAMPLES to raise).

#include <algorithm>
#include <cstdio>
#include <optional>

#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "bench_util.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "bilp/bilp_to_qubo.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"

namespace {

using namespace qopt;

struct EmbedPoint {
  int logical = 0;
  int successes = 0;
  int attempts = 0;
  double mean_physical = 0.0;
  double min_physical = 0.0;  ///< Over the successful attempts.
  double max_physical = 0.0;
  bool Reliable() const { return 2 * successes >= attempts; }
};

EmbedPoint MeasurePoint(const SimpleGraph& target, int relations,
                        int predicates, int thresholds, int decimals,
                        int samples) {
  QueryGeneratorOptions gen;
  gen.num_relations = relations;
  gen.num_predicates = predicates;
  gen.seed = 7;
  const QueryGraph graph = GenerateRandomQuery(gen);
  JoinOrderEncoderOptions options;
  options.thresholds.clear();
  for (int r = 0; r < thresholds; ++r) {
    options.thresholds.push_back(10.0 * (r + 1));
  }
  options.precision_decimals = decimals;
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
  const BilpQuboEncoding qubo = EncodeBilpAsQubo(encoding.bilp);
  const SimpleGraph source = qubo.qubo.InteractionGraph();

  EmbedPoint point;
  point.logical = source.NumVertices();
  std::fprintf(stderr,
               "[fig14] measuring T=%d P=%d R=%d decimals=%d "
               "(%d logical qubits)...\n",
               relations, predicates, thresholds, decimals,
               point.logical);
  // The attempts are independent (one seed each), so they run as one
  // parallel sweep; results come back indexed by seed, and the seed-order
  // scan below keeps success counts and means identical to the old loop.
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    seeds.push_back(100 + static_cast<std::uint64_t>(s) * 7919);
  }
  EmbedOptions embed;
  embed.tries = 1;  // each sample is one independent attempt
  const std::vector<std::optional<Embedding>> embeddings =
      FindMinorEmbeddingManySeeds(source, target, seeds, embed);
  std::vector<double> physical;
  for (const std::optional<Embedding>& embedding : embeddings) {
    ++point.attempts;
    if (embedding.has_value()) {
      ++point.successes;
      physical.push_back(
          static_cast<double>(embedding->NumPhysicalQubits()));
    }
  }
  point.mean_physical = Mean(physical);
  if (!physical.empty()) {
    const auto [low, high] =
        std::minmax_element(physical.begin(), physical.end());
    point.min_physical = *low;
    point.max_physical = *high;
  }
  return point;
}

std::string PointCell(const EmbedPoint& point) {
  if (point.attempts == 0) return "-";
  if (!point.Reliable()) {
    return StrFormat("unreliable (%d/%d)", point.successes, point.attempts);
  }
  return StrFormat("%.0f [%.0f-%.0f] (logical %d)", point.mean_physical,
                   point.min_physical, point.max_physical, point.logical);
}

}  // namespace

int main() {
  using qopt_bench::PrintHeader;
  using qopt_bench::Samples;
  PrintHeader("Figure 14", "physical qubits on Pegasus P16 (Advantage)");
  const int samples = Samples(3);
  const bool fast = qopt_bench::FastMode();
  std::printf("(%d embedding attempts per point%s)\n\n", samples,
              fast ? ", fast mode" : "");

  const SimpleGraph p16 = MakePegasus(16);
  std::printf("Pegasus P16 fabric: %d qubits, %d couplers\n\n",
              p16.NumVertices(), p16.NumEdges());

  std::printf("Left chart — relations sweep (R = 1 threshold, omega = 1):\n");
  // The default sweep stops at 10 relations: our heuristic embedder's
  // chains are up to ~2x longer than minorminer's, so the paper's 12-14 relation
  // frontier point takes many minutes per attempt and usually fails; set
  // QQO_BENCH_MAX_RELATIONS=12 or 14 to try them.
  TablePrinter left({"relations", "P=J", "P=2J", "P=3J"});
  const int max_relations =
      qopt_bench::EnvInt("QQO_BENCH_MAX_RELATIONS", fast ? 8 : 10);
  std::vector<bool> series_alive = {true, true, true};
  for (int t = 6; t <= max_relations; t += 2) {
    std::vector<std::string> row = {StrFormat("%d", t)};
    for (int factor = 1; factor <= 3; ++factor) {
      const std::size_t s = static_cast<std::size_t>(factor - 1);
      if (!series_alive[s]) {
        row.push_back("(stopped)");
        continue;
      }
      const int predicates = factor * (t - 1);
      if (predicates > t * (t - 1) / 2) {
        row.push_back("-");
        continue;
      }
      const EmbedPoint point =
          MeasurePoint(p16, t, predicates, 1, 0, samples);
      row.push_back(PointCell(point));
      if (!point.Reliable()) series_alive[s] = false;
    }
    left.AddRow(row);
  }
  left.Print();

  std::printf("\nRight chart — thresholds sweep (8 relations, P = J):\n");
  TablePrinter right({"thresholds", "omega=1", "omega=0.01", "omega=0.0001"});
  const int threshold_steps[] = {1, 3, 5, 7};
  std::vector<bool> omega_alive = {true, true, true};
  const int decimals_of[] = {0, 2, 4};
  for (int r : threshold_steps) {
    if (fast && r > 3) break;
    std::vector<std::string> row = {StrFormat("%d", r)};
    for (std::size_t w = 0; w < 3; ++w) {
      if (!omega_alive[w]) {
        row.push_back("(stopped)");
        continue;
      }
      const EmbedPoint point =
          MeasurePoint(p16, 8, 7, r, decimals_of[w], samples);
      row.push_back(PointCell(point));
      if (!point.Reliable()) omega_alive[w] = false;
    }
    right.AddRow(row);
  }
  right.Print();

  std::printf(
      "\nNotes: chains make the physical count a small multiple of the\n"
      "logical one; denser QUBOs (more predicates, more thresholds, finer\n"
      "omega) lose embeddability far before the fabric's qubit count is\n"
      "exhausted — the paper's central finding for annealers.\n");
  return 0;
}
