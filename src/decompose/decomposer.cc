#include "decompose/decomposer.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/retry.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "decompose/partition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qopt {
namespace {

/// A block proposal is accepted only when it strictly improves the exact
/// energy by more than this, so FP noise can neither flap the incumbent
/// nor stall convergence detection.
constexpr double kImproveEps = 1e-12;
/// Hard cap on tabu moves per round, independent of problem size.
constexpr int kMaxRefineIters = 20000;
/// Tabu tenure: a flipped variable stays tabu for this many moves
/// (aspiration: a move that beats the best-so-far is always allowed).
constexpr int kTabuTenure = 8;

// AttemptSeed domains. The facade's serial lanes draw attempts 1..N, so
// the decomposer starts its bases far above them and gives every
// (round, block) pair its own attempt.
constexpr std::int64_t kPartitionSeedBase = std::int64_t{1} << 16;
constexpr std::int64_t kSubproblemSeedBase = std::int64_t{1} << 32;
constexpr std::int64_t kSubproblemRoundStride = std::int64_t{1} << 21;

/// Per-block outcome of the parallel solve stage, indexed by block so the
/// stitch order (and therefore the result) is thread-count independent.
struct BlockOutcome {
  /// Proposed bits for the block's variables (block order). Empty when
  /// the block keeps the incumbent (solver failed or never ran).
  std::vector<std::uint8_t> proposal;
  /// The solver's kCancelled or kInvalidArgument, which end the whole
  /// decomposition; OK otherwise.
  Status fatal = OkStatus();
};

/// Solves one block (named helper: the ParallelFor lambda must stay
/// trivial under the pool-reentrancy contract; any nested ParallelFor the
/// solver issues runs inline serially). Any other solver failure keeps
/// the incumbent for this block instead of voiding the round.
BlockOutcome SolveOneBlock(const QuboModel& qubo,
                           const std::vector<int>& block,
                           const std::vector<std::uint8_t>& incumbent,
                           std::uint64_t seed, const Deadline& deadline,
                           const SubproblemSolver& solver) {
  BlockOutcome outcome;
  if (block.size() == 1) {
    // Singleton blocks (isolated variables or partition leftovers) are
    // solved exactly in place: with every neighbor clamped, the objective
    // is linear in the lone bit.
    const int v = block.front();
    const double flip = qubo.FlipDelta(incumbent, v);
    const double turn_on =
        incumbent[static_cast<std::size_t>(v)] ? -flip : flip;
    outcome.proposal.assign(1, turn_on < 0.0 ? 1 : 0);
    return outcome;
  }
  const QuboModel sub = BuildClampedSubproblem(qubo, block, incumbent);
  StatusOr<SubproblemResult> solved = solver(sub, seed, deadline);
  if (!solved.ok()) {
    const StatusCode code = solved.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kInvalidArgument) {
      outcome.fatal = solved.status();
    }
    QQO_COUNT("decompose.subproblem_failures", 1);
    return outcome;
  }
  if (solved->bits.size() != block.size()) {
    QQO_COUNT("decompose.subproblem_failures", 1);
    return outcome;  // malformed solver output: keep the incumbent
  }
  outcome.proposal = std::move(solved->bits);
  return outcome;
}

/// Applies `proposal` to the incumbent iff it strictly lowers the exact
/// energy; otherwise reverts every flip. Atomic per block: the incumbent
/// is a complete, consistent assignment before and after this call, which
/// is what lets a deadline abort the stitch *between* blocks and still
/// return a valid anytime result.
void ApplyBlockIfImproving(const QuboModel& qubo,
                           const std::vector<int>& block,
                           const std::vector<std::uint8_t>& proposal,
                           std::vector<std::uint8_t>* bits, double* energy) {
  double delta = 0.0;
  std::vector<int> flipped;
  flipped.reserve(block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    const int v = block[i];
    if ((*bits)[static_cast<std::size_t>(v)] == proposal[i]) continue;
    delta += qubo.FlipDelta(*bits, v);
    (*bits)[static_cast<std::size_t>(v)] ^= 1;
    flipped.push_back(v);
  }
  if (delta < -kImproveEps) {
    *energy += delta;
    QQO_COUNT("decompose.blocks_accepted", 1);
    return;
  }
  for (auto it = flipped.rbegin(); it != flipped.rend(); ++it) {
    (*bits)[static_cast<std::size_t>(*it)] ^= 1;
  }
}

/// Classical tabu refinement of the stitched incumbent: steepest
/// single-bit moves with a short tenure and best-so-far aspiration,
/// restoring the best visited assignment on exit. Deterministic: ties
/// break to the lowest variable index. Returns the deadline status when
/// the budget expires mid-search (the best-so-far restore still runs).
Status TabuRefine(const QuboModel& qubo, const DecomposeOptions& options,
                  std::vector<std::uint8_t>* bits, double* energy) {
  QQO_TRACE_SPAN("decompose.refine");
  const CsrAdjacency& adj = qubo.Rows();
  const int n = qubo.NumVariables();
  const std::int64_t budget = std::min<std::int64_t>(
      kMaxRefineIters,
      static_cast<std::int64_t>(options.refine_passes) * n);
  std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
  for (int v = 0; v < n; ++v) {
    delta[static_cast<std::size_t>(v)] = qubo.FlipDelta(*bits, v);
  }
  std::vector<std::int64_t> tabu_until(static_cast<std::size_t>(n), -1);
  std::vector<std::uint8_t> best_bits = *bits;
  double best_energy = *energy;
  const std::int64_t stall_limit = std::max<std::int64_t>(32, n / 8);
  std::int64_t stall = 0;
  Status status = OkStatus();
  // QQO_LOOP(decompose.refine)
  for (std::int64_t it = 0; it < budget; ++it) {
    status = options.deadline.Check();
    if (!status.ok()) break;
    QQO_COUNT("decompose.refine_moves", 1);
    int best_move = -1;
    double best_delta = std::numeric_limits<double>::infinity();
    for (int v = 0; v < n; ++v) {
      const double d = delta[static_cast<std::size_t>(v)];
      const bool aspirates = *energy + d < best_energy - kImproveEps;
      if (tabu_until[static_cast<std::size_t>(v)] >= it && !aspirates) {
        continue;
      }
      if (d < best_delta) {
        best_delta = d;
        best_move = v;
      }
    }
    if (best_move < 0) break;
    // Accept the move even when it worsens the energy — tenure keeps the
    // search from undoing it immediately, which is what walks it out of
    // the local minimum the stitch landed in. Flat stretches end via the
    // stall limit below.
    const std::size_t u = static_cast<std::size_t>(best_move);
    *energy += best_delta;
    const double direction = (*bits)[u] ? 1.0 : -1.0;
    (*bits)[u] ^= 1;
    delta[u] = -delta[u];
    for (std::size_t k = adj.offsets[u]; k < adj.offsets[u + 1]; ++k) {
      const std::size_t w = static_cast<std::size_t>(adj.neighbors[k]);
      const double sign = (*bits)[w] ? 1.0 : -1.0;
      // d(delta_w)/d(x_u) = (1 - 2 x_w) * c_uw; x_u moved by -direction.
      delta[w] += -direction * -sign * adj.coeffs[k];
    }
    tabu_until[u] = it + kTabuTenure;
    if (*energy < best_energy - kImproveEps) {
      best_energy = *energy;
      best_bits = *bits;
      stall = 0;
    } else if (++stall > stall_limit) {
      break;
    }
  }
  *bits = std::move(best_bits);
  *energy = best_energy;
  return status;
}

}  // namespace

std::uint64_t PartitionSeed(std::uint64_t seed, int round) {
  return AttemptSeed(seed, kPartitionSeedBase + round);
}

std::uint64_t SubproblemSeed(std::uint64_t seed, int round, int block) {
  return AttemptSeed(seed, kSubproblemSeedBase +
                               kSubproblemRoundStride * round + block);
}

QuboModel BuildClampedSubproblem(const QuboModel& qubo,
                                 const std::vector<int>& block,
                                 const std::vector<std::uint8_t>& incumbent) {
  const CsrAdjacency& adj = qubo.Rows();
  std::vector<double> linear(block.size(), 0.0);
  PairTerms terms;
  for (std::size_t local = 0; local < block.size(); ++local) {
    const int global = block[local];
    const std::size_t u = static_cast<std::size_t>(global);
    double sum = qubo.Linear(global);
    // The row and `block` are both ascending: one merge walk finds the
    // in-block partners, in ascending local order.
    auto member = block.begin();
    for (std::size_t k = adj.offsets[u]; k < adj.offsets[u + 1]; ++k) {
      const int j = adj.neighbors[k];
      member = std::lower_bound(member, block.end(), j);
      if (member != block.end() && *member == j) {
        const int other = static_cast<int>(member - block.begin());
        if (j > global) {
          terms.push_back({{static_cast<int>(local), other}, adj.coeffs[k]});
        }
      } else if (incumbent[static_cast<std::size_t>(j)]) {
        sum += adj.coeffs[k];
      }
    }
    if (sum != 0.0) linear[local] = sum;
  }
  return QuboModel(0.0, std::move(linear), terms);
}

StatusOr<DecomposeResult> SolveQuboDecomposed(const QuboModel& qubo,
                                              const DecomposeOptions& options,
                                              const SubproblemSolver& solver) {
  const int n = qubo.NumVariables();
  if (n < 1) return InvalidArgumentError("QUBO has no variables");
  if (options.max_subproblem_size < 2) {
    return InvalidArgumentError(
        StrFormat("decompose needs max_subproblem_size >= 2, got %d",
                  options.max_subproblem_size));
  }
  if (options.max_rounds < 1) {
    return InvalidArgumentError(StrFormat(
        "decompose needs max_rounds >= 1, got %d", options.max_rounds));
  }
  if (!solver) return InvalidArgumentError("decompose needs a solver");
  QQO_TRACE_SPAN("decompose.solve");
  // An already-exhausted budget fails fast (kCancelled or
  // kDeadlineExceeded) before any work: there is no incumbent yet, so
  // there is nothing anytime to return.
  QOPT_RETURN_IF_ERROR(options.deadline.Check());

  DecomposeResult result;
  result.bits.assign(static_cast<std::size_t>(n), 0);
  result.energy = qubo.Energy(result.bits);
  result.round_energies.reserve(static_cast<std::size_t>(options.max_rounds));

  ThreadPool& pool = ThreadPool::Default();
  // QQO_LOOP(decompose.round)
  for (int round = 0; round < options.max_rounds; ++round) {
    QQO_TRACE_SPAN("decompose.round");
    if (Status budget = options.deadline.Check(); !budget.ok()) {
      if (budget.code() == StatusCode::kCancelled) return budget;
      result.timed_out = true;
      break;
    }
    const double round_start_energy = result.energy;
    const std::vector<std::vector<int>> blocks = PartitionQuboVariables(
        qubo, options.max_subproblem_size,
        PartitionSeed(options.seed, round));

    // Jacobi-style solve stage: every block is clamped against the same
    // round-start incumbent snapshot and outcomes are written through the
    // block index, so the stage is byte-identical at any pool size.
    const std::vector<std::uint8_t> incumbent = result.bits;
    std::vector<BlockOutcome> outcomes(blocks.size());
    result.subproblems += static_cast<int>(blocks.size());
    QQO_COUNT("decompose.subproblems", static_cast<long long>(blocks.size()));
    const Status ran = pool.ParallelFor(
        blocks.size(), options.deadline, [&](std::size_t b) {
          outcomes[b] = SolveOneBlock(
              qubo, blocks[b], incumbent,
              SubproblemSeed(options.seed, round, static_cast<int>(b)),
              options.deadline, solver);
        });
    // A cancel outranks an invalid input; among invalid inputs the first
    // block's error surfaces, so the status is thread-count independent.
    const Status* invalid = nullptr;
    for (const BlockOutcome& outcome : outcomes) {
      if (outcome.fatal.code() == StatusCode::kCancelled) {
        return CancelledError("decomposition cancelled in a subproblem");
      }
      if (invalid == nullptr && !outcome.fatal.ok()) invalid = &outcome.fatal;
    }
    if (invalid != nullptr) return *invalid;
    if (!ran.ok() && ran.code() == StatusCode::kCancelled) return ran;

    // Stitch serially in block order. Acceptance is atomic per block
    // (apply-or-revert against the exact energy delta), and the deadline
    // is polled only at block boundaries: an expiry mid-round therefore
    // returns the incumbent as last committed — complete and consistent —
    // never a half-stitched assignment.
    bool truncated = !ran.ok();
    // QQO_LOOP(decompose.stitch)
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (Status budget = options.deadline.Check(); !budget.ok()) {
        if (budget.code() == StatusCode::kCancelled) return budget;
        truncated = true;
        break;
      }
      QQO_COUNT("decompose.blocks_stitched", 1);
      if (outcomes[b].proposal.empty()) continue;  // kept incumbent
      ApplyBlockIfImproving(qubo, blocks[b], outcomes[b].proposal,
                            &result.bits, &result.energy);
    }

    if (!truncated && options.refine_passes > 0) {
      const Status refined =
          TabuRefine(qubo, options, &result.bits, &result.energy);
      if (!refined.ok()) {
        if (refined.code() == StatusCode::kCancelled) return refined;
        truncated = true;
      }
    }

    // Incremental deltas accumulate FP error over thousands of flips;
    // anchor the reported (and convergence-tested) energy exactly.
    result.energy = qubo.Energy(result.bits);
    result.rounds += 1;
    result.round_energies.push_back(result.energy);
    QQO_COUNT("decompose.rounds", 1);
    if (truncated) {
      result.timed_out = true;
      break;
    }
    if (result.energy >= round_start_energy - kImproveEps) break;  // converged
  }
  return result;
}

}  // namespace qopt
