#pragma once

#include <vector>

#include "anneal/embedding.h"
#include "anneal/minor_embedder.h"
#include "anneal/simulated_annealer.h"
#include "common/status.h"
#include "graph/simple_graph.h"
#include "qubo/qubo_model.h"

namespace qopt {

/// Options for solving a QUBO through a minor embedding (the OCEAN
/// StructureComposite + EmbeddingComposite emulation: the solver only sees
/// couplers that exist in the annealer topology).
struct EmbeddedSolveOptions {
  /// `embed.deadline` bounds the embedding stage, `anneal.deadline` the
  /// annealing stage; callers with one overall budget set both from the
  /// same parent Deadline (the min-composition in WithBudget makes that
  /// safe).
  EmbedOptions embed;
  AnnealOptions anneal;
  /// Ferromagnetic chain coupling strength. <= 0 derives it from the
  /// problem scale (1.5x the largest absolute Ising coefficient).
  double chain_strength = 0.0;
};

/// Result of an embedded solve.
struct EmbeddedSolveResult {
  std::vector<std::uint8_t> bits;  ///< Logical solution after unembedding.
  double energy = 0.0;             ///< Logical QUBO energy of `bits`.
  Embedding embedding;
  /// Fraction of chains whose physical qubits disagreed in the best
  /// sample (resolved by majority vote).
  double chain_break_fraction = 0.0;
  /// True when the annealing stage was cut short by its deadline (the
  /// bits are still the best sample found; see AnnealResult::timed_out).
  bool timed_out = false;
};

/// The physical problem an embedded solve anneals.
struct EmbeddedProblem {
  /// Over the used physical qubits, renumbered densely chain by chain:
  /// the logical fields and couplings split evenly over each chain and
  /// its couplers, plus a -chain_strength coupling on every chain edge.
  QuboModel qubo;
  /// Per logical variable, its chain in the dense numbering. These are
  /// the annealer's flip groups.
  std::vector<std::vector<int>> chains;
};

/// Builds the physical problem of `qubo` under `embedding` (one chain per
/// logical variable, found in `topology`). `chain_strength` <= 0 derives
/// it as in EmbeddedSolveOptions.
EmbeddedProblem BuildEmbeddedProblem(const QuboModel& qubo,
                                     const SimpleGraph& topology,
                                     const Embedding& embedding,
                                     double chain_strength);

/// Embeds `qubo`'s interaction graph into `topology`, anneals the chained
/// physical Ising problem, and unembeds by per-chain majority vote.
/// Before the embedding search starts it refuses an empty QUBO and
/// anneal.num_reads / anneal.num_sweeps below 1 with kInvalidArgument (the
/// embed options are TryFindMinorEmbedding's to check).
/// Returns kUnavailable when no embedding was found within the embed
/// budget, kDeadlineExceeded / kCancelled when a stage budget ran out,
/// injected faults verbatim. An annealing stage cut short by its deadline
/// still returns OK with `timed_out` set (anytime semantics).
StatusOr<EmbeddedSolveResult> TrySolveQuboOnTopology(
    const QuboModel& qubo, const SimpleGraph& topology,
    const EmbeddedSolveOptions& options = {});

}  // namespace qopt
