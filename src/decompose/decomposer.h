#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "qubo/qubo_model.h"

namespace qopt {

/// Hybrid quantum-classical QUBO decomposition (qbsolv-style): break a
/// QUBO that exceeds every backend's qubit budget into backend-sized
/// subproblems, solve the pieces through a caller-supplied solver, and
/// stitch the piecewise proposals back into one assignment with a
/// classical tabu refinement loop. See DESIGN.md "Decomposition".

/// Tuning knobs for one decomposed solve.
struct DecomposeOptions {
  /// Largest subproblem (block) the partitioner may form; >= 2. Pick it
  /// to fit the subproblem backend's qubit cap (26 for the statevector
  /// backends; SA takes any size).
  int max_subproblem_size = 26;
  /// Outer round budget: each round re-partitions with a fresh seed,
  /// solves every block against the round-start incumbent and stitches.
  /// The loop also stops early on convergence (a round that fails to
  /// improve the incumbent energy) or when the deadline expires.
  int max_rounds = 8;
  /// Tabu refinement budget per round, as a multiple of the variable
  /// count (capped at kMaxRefineIters); 0 disables refinement.
  int refine_passes = 1;
  /// Base seed. Every per-round and per-block seed is derived from it via
  /// the AttemptSeed sequence (see SubproblemSeed / PartitionSeed), so a
  /// decomposed solve is byte-identical across QQO_THREADS whenever the
  /// deadline does not truncate subproblem solves.
  std::uint64_t seed = 0;
  /// Overall deadline (with optional CancelToken). Expiry preserves the
  /// anytime invariant: the best incumbent found so far is returned with
  /// timed_out = true, never a half-stitched assignment. Cancellation
  /// returns kCancelled with no result.
  Deadline deadline;
};

/// What the subproblem solver returns: an assignment of the subproblem's
/// local variables (bits.size() == subproblem.NumVariables()).
struct SubproblemResult {
  std::vector<std::uint8_t> bits;
};

/// Solves one clamped subproblem. The decomposer derives `seed` from the
/// AttemptSeed sequence (unique per round and block) and passes the
/// overall deadline through. A kCancelled return aborts the whole
/// decomposition with kCancelled, and a kInvalidArgument return (the
/// caller's options are out of range, so every block would fail alike)
/// aborts it with that status. Any other error keeps the incumbent for
/// that block and moves on (one failed block must not void the other
/// blocks' work).
using SubproblemSolver = std::function<StatusOr<SubproblemResult>(
    const QuboModel& subproblem, std::uint64_t seed,
    const Deadline& deadline)>;

/// Outcome of a decomposed solve.
struct DecomposeResult {
  std::vector<std::uint8_t> bits;  ///< Final incumbent assignment.
  double energy = 0.0;             ///< Exact energy of `bits`.
  int rounds = 0;                  ///< Decomposition rounds completed.
  /// Blocks formed across all rounds, singletons and blocks the solver
  /// answers without running a backend (e.g. the facade's blocks whose
  /// every bit is pinned) included.
  int subproblems = 0;
  /// Incumbent energy after each completed round (refinement included).
  std::vector<double> round_energies;
  /// The deadline expired before the round budget was exhausted; `bits`
  /// is the best incumbent at that point (anytime contract).
  bool timed_out = false;
};

/// Deterministic seed for the round-`round` partition, disjoint from the
/// facade's retry attempts (1..N).
std::uint64_t PartitionSeed(std::uint64_t seed, int round);

/// Deterministic seed for block `block` of round `round`; disjoint from
/// PartitionSeed and from every other (round, block) pair.
std::uint64_t SubproblemSeed(std::uint64_t seed, int round, int block);

/// The subproblem of the ascending `block` with the complement clamped to
/// `incumbent`: `qubo`'s rows filtered to the block, with the couplings to
/// clamped-1 outside variables folded into the linear part in row order.
/// The constant share is dropped: a subproblem is only argmin'd, and the
/// stitch accepts a block by its exact full-problem delta.
QuboModel BuildClampedSubproblem(const QuboModel& qubo,
                                 const std::vector<int>& block,
                                 const std::vector<std::uint8_t>& incumbent);

/// Runs the decomposition loop:
///
///   incumbent <- all zeros
///   repeat up to max_rounds:
///     partition variables (fresh seeded boundaries each round)
///     for every block, in parallel: clamp the complement to the
///       round-start incumbent, build the induced sub-QUBO and solve it
///     stitch serially in block order: accept a block's proposal iff it
///       strictly lowers the exact energy (apply-or-revert, atomic per
///       block)
///     tabu-refine the stitched incumbent
///   until converged / deadline
///
/// Subproblem solves run through ThreadPool::Default() with results
/// indexed by block, so the outcome is byte-identical at any QQO_THREADS
/// when no deadline truncation occurs. Errors: kInvalidArgument for a
/// malformed QUBO (no variables) or options, or the first block's
/// kInvalidArgument from the solver; kCancelled if the token fires (no
/// result); deadline expiry is NOT an error (anytime result with
/// timed_out = true).
StatusOr<DecomposeResult> SolveQuboDecomposed(const QuboModel& qubo,
                                              const DecomposeOptions& options,
                                              const SubproblemSolver& solver);

}  // namespace qopt
