#pragma once

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "qubo/qubo_model.h"

namespace qopt {

/// Options for the classical simulated-annealing QUBO sampler (the
/// dwave-neal equivalent the paper uses as its annealing solver).
struct AnnealOptions {
  int num_reads = 10;     ///< Independent restarts; best sample is kept.
  int num_sweeps = 1000;  ///< Metropolis sweeps per read.
  /// Inverse-temperature schedule endpoints. If beta_max <= 0, both are
  /// derived from the problem's energy scale (like neal's default).
  double beta_min = 0.0;
  double beta_max = 0.0;
  std::uint64_t seed = 0;
  /// Optional cluster moves: after every single-flip sweep, each group is
  /// proposed as a joint flip of all its variables. The embedding
  /// composite passes the chains here so that logical flips remain
  /// possible once strong chain couplings freeze individual qubits.
  /// Every member must be a valid variable index, and the members of one
  /// group must be distinct (groups may overlap each other);
  /// kInvalidArgument otherwise.
  std::vector<std::vector<int>> flip_groups;
  /// Wall-clock budget, checked at every sweep boundary of every read.
  /// Unbounded by default.
  Deadline deadline;
};

/// Result of a simulated-annealing run.
struct AnnealResult {
  std::vector<std::uint8_t> best_bits;
  double best_energy = 0.0;
  /// Energy of every read's final state (for distribution studies). Reads
  /// that never started because the deadline expired first are absent.
  std::vector<double> read_energies;
  /// True when the deadline expired mid-run. The result is still the best
  /// state found so far (anytime semantics) — but it came from fewer
  /// sweeps/reads than requested, so it is NOT reproducible across
  /// machines the way a completed run is.
  bool timed_out = false;
};

/// Samples low-energy states of `qubo` with Metropolis simulated annealing
/// on a geometric inverse-temperature schedule.
///
/// Sweep kernel: each read maintains a per-variable local-field array so a
/// flip proposal is an O(1) lookup and only *accepted* flips pay
/// O(degree) to update neighbor fields (dense problems use contiguous
/// coefficient rows instead of the CSR gather). Group flips share the
/// same cache. On hosts with AVX2 one worker anneals four reads in
/// lock-step, one per vector lane, with bit-identical results. See
/// DESIGN.md "Annealer sweep layout".
///
/// Before any deadline poll it refuses, with kInvalidArgument, an empty
/// QUBO, num_reads or num_sweeps below 1, an explicit beta range outside
/// 0 < beta_min <= beta_max and malformed flip_groups.
///
/// Simulated annealing is an anytime algorithm: when `options.deadline`
/// expires mid-run the best state found so far is returned with
/// `timed_out = true` and an OK status. Past input validation, only a
/// fired CancelToken (kCancelled) or an injected fault at the
/// "annealer.sweep" site produces a non-OK status.
StatusOr<AnnealResult> TrySolveQuboWithAnnealing(
    const QuboModel& qubo, const AnnealOptions& options = {});

}  // namespace qopt
