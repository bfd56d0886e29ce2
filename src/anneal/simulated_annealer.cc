#include "anneal/simulated_annealer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qopt {
namespace {

/// One coupling c_ij between two members i < j of a flip group.
struct GroupCoupling {
  int i = 0;
  int j = 0;
  double coeff = 0.0;
};

/// Sweep-kernel view of the QUBO, shared read-only by every read.
///
/// The proposal loop never touches adjacency at all: it maintains a
/// per-variable local field
///
///   local_field[i] = linear_i + sum_j c_ij * bits[j]
///
/// so the energy delta of flipping bit i is +-local_field[i] — an O(1)
/// lookup per proposal. Only an *accepted* flip pays O(degree(i)) to push
/// the change into its neighbors' fields (the dwave-neal scheme; the old
/// code rescanned the adjacency row on every proposal).
///
/// Two field-update layouts, chosen deterministically from the problem
/// shape: CSR rows (index-sorted, one contiguous coefficient stream per
/// variable) for sparse problems, and full dense coefficient rows for
/// dense ones, where the unit-stride `field[j] += sign * row[j]` pass over
/// all n columns vectorizes and out-runs the gather through a CSR row.
///
/// Group moves get their inside-group couplings precomputed: group g's
/// (i, j, c_ij) with j > i, in member order and then CSR row order, span
/// group_couplings[group_offsets[g] .. group_offsets[g + 1]).
struct SweepGraph {
  int n = 0;
  bool dense = false;
  std::vector<double> linear;
  CsrAdjacency csr;
  std::vector<double> rows;  ///< n*n, row-major, 0.0 where no coupling.
  std::vector<std::size_t> group_offsets;
  std::vector<GroupCoupling> group_couplings;

  std::span<const GroupCoupling> GroupCouplings(std::size_t g) const {
    return {group_couplings.data() + group_offsets[g],
            group_couplings.data() + group_offsets[g + 1]};
  }
};

/// Dense rows win once enough of the row is populated that the contiguous
/// pass beats the CSR gather; the variable cap bounds the n*n buffer
/// (2048^2 doubles = 32 MiB).
constexpr double kDenseRowThreshold = 0.35;
constexpr int kDenseRowMaxVars = 2048;

StatusOr<SweepGraph> BuildSweepGraph(
    const QuboModel& qubo, const std::vector<std::vector<int>>& groups) {
  SweepGraph graph;
  graph.n = qubo.NumVariables();
  graph.linear.resize(static_cast<std::size_t>(graph.n));
  for (int i = 0; i < graph.n; ++i) {
    graph.linear[static_cast<std::size_t>(i)] = qubo.Linear(i);
  }
  graph.csr = qubo.BuildCsrAdjacency();
  graph.dense =
      graph.n >= 2 && graph.n <= kDenseRowMaxVars &&
      qubo.Density() >= kDenseRowThreshold;
  if (graph.dense) {
    const std::size_t n = static_cast<std::size_t>(graph.n);
    graph.rows.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = graph.csr.offsets[i]; k < graph.csr.offsets[i + 1];
           ++k) {
        graph.rows[i * n +
                   static_cast<std::size_t>(graph.csr.neighbors[k])] =
            graph.csr.coeffs[k];
      }
    }
  }
  // The coupling lists assume distinct members: a duplicate would be
  // counted twice by GroupDelta yet flipped back by CommitGroup, and the
  // tracked energy would drift from Energy(bits).
  std::vector<std::uint8_t> in_group(static_cast<std::size_t>(graph.n), 0);
  graph.group_offsets.push_back(0);
  for (const auto& group : groups) {
    for (int i : group) {
      if (i < 0 || i >= graph.n || in_group[static_cast<std::size_t>(i)]) {
        return InvalidArgumentError(StrFormat(
            "flip group member %d is out of range or repeated", i));
      }
      in_group[static_cast<std::size_t>(i)] = 1;
    }
    for (int i : group) {
      const std::size_t idx = static_cast<std::size_t>(i);
      for (std::size_t k = graph.csr.offsets[idx];
           k < graph.csr.offsets[idx + 1]; ++k) {
        const int j = graph.csr.neighbors[k];
        // j > i lists each inside-group edge exactly once.
        if (j > i && in_group[static_cast<std::size_t>(j)]) {
          graph.group_couplings.push_back({i, j, graph.csr.coeffs[k]});
        }
      }
    }
    for (int i : group) in_group[static_cast<std::size_t>(i)] = 0;
    graph.group_offsets.push_back(graph.group_couplings.size());
  }
  return graph;
}

/// Derives a default inverse-temperature range from the problem's energy
/// scale, mirroring dwave-neal: hot enough that the largest single-flip
/// barrier is accepted with probability ~1/2, cold enough that the
/// smallest non-zero barrier is frozen out.
std::pair<double, double> DefaultBetaRange(const SweepGraph& graph) {
  // Hot end: the largest single-flip barrier must be crossable with
  // probability ~1/2. Cold end: the smallest non-zero coefficient — the
  // finest energy scale in the problem — must be frozen out, so that
  // penalty-dominated problems (where every variable also carries huge
  // constraint terms) still resolve their small objective differences.
  double max_delta = 0.0;
  double min_coeff = std::numeric_limits<double>::infinity();
  for (int i = 0; i < graph.n; ++i) {
    const double linear = std::abs(graph.linear[static_cast<std::size_t>(i)]);
    double scale = linear;
    if (linear > 0.0) min_coeff = std::min(min_coeff, linear);
    for (std::size_t k = graph.csr.offsets[static_cast<std::size_t>(i)];
         k < graph.csr.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const double coeff = graph.csr.coeffs[k];
      scale += std::abs(coeff);
      if (coeff != 0.0) min_coeff = std::min(min_coeff, std::abs(coeff));
    }
    max_delta = std::max(max_delta, scale);
  }
  if (max_delta == 0.0) return {0.1, 1.0};  // constant objective
  const double beta_min = std::log(2.0) / max_delta;
  const double beta_max = std::log(100.0) / std::max(min_coeff, 1e-9);
  return {beta_min, std::max(beta_max, beta_min * 2.0)};
}

/// Independent RNG stream per read (splitmix64 finalizer over seed and
/// read index). Decoupling the reads from one shared sequential stream is
/// what lets them run in parallel while staying deterministic: read r sees
/// the same randomness no matter how many threads execute the sweep.
std::uint64_t ReadSeed(std::uint64_t seed, int read) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL *
                               (static_cast<std::uint64_t>(read) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Per-read mutable state. The buffers live in a thread_local arena (one
/// per pool worker) and are fully re-initialized by Reset() for each read
/// — the PR-1 Reset() reuse pattern — so steady-state reads allocate
/// nothing. Determinism is unaffected by the reuse: every cell a read
/// observes is overwritten before use, and reads never share state.
struct ReadState {
  std::vector<std::uint8_t> bits;
  std::vector<double> local_field;
  double energy = 0.0;

  void Reset(const SweepGraph& graph, const QuboModel& qubo, Rng* rng) {
    const std::size_t n = static_cast<std::size_t>(graph.n);
    bits.resize(n);
    for (auto& b : bits) b = rng->NextBool() ? 1 : 0;
    energy = qubo.Energy(bits);
    // local_field[i] = linear_i + sum over couplings to set bits, summed
    // in CSR (index-sorted) order so the init is platform-deterministic.
    local_field.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      double field = graph.linear[i];
      for (std::size_t k = graph.csr.offsets[i]; k < graph.csr.offsets[i + 1];
           ++k) {
        if (bits[static_cast<std::size_t>(graph.csr.neighbors[k])]) {
          field += graph.csr.coeffs[k];
        }
      }
      local_field[i] = field;
    }
  }

  /// Energy delta of flipping bit i, from the cached field: O(1).
  double FlipDelta(int i) const {
    const std::size_t idx = static_cast<std::size_t>(i);
    return bits[idx] ? -local_field[idx] : local_field[idx];
  }

  /// Flips bit i and pushes the change into the neighbors' local fields —
  /// O(degree(i)) sparse, O(n) unit-stride dense. local_field[i] itself
  /// is untouched (no self-coupling), so an immediate flip-back sees the
  /// exact negated delta.
  void CommitFlip(const SweepGraph& graph, int i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const std::uint8_t now = (bits[idx] ^= 1);
    const double sign = now ? 1.0 : -1.0;
    if (graph.dense) {
      const std::size_t n = static_cast<std::size_t>(graph.n);
      const double* row = graph.rows.data() + idx * n;
      double* field = local_field.data();
      for (std::size_t j = 0; j < n; ++j) field[j] += sign * row[j];
    } else {
      for (std::size_t k = graph.csr.offsets[idx];
           k < graph.csr.offsets[idx + 1]; ++k) {
        local_field[static_cast<std::size_t>(graph.csr.neighbors[k])] +=
            sign * graph.csr.coeffs[k];
      }
    }
  }

  /// Energy delta of jointly flipping every bit of `group`, computed from
  /// the shared local-field cache WITHOUT mutating any state:
  ///
  ///   dE(S) = sum_{i in S} FlipDelta(i)
  ///         + sum_{edges (i,j) inside S} c_ij * s_i * s_j,   s = 1 - 2b.
  ///
  /// Each member's single-flip delta counts the edge to another member as
  /// if that member stayed put; the pairwise term restores the joint
  /// product change c_ij * (b_i' - b_i)(b_j' - b_j). Rejected proposals
  /// therefore cost no undo at all. The edges come precomputed from
  /// SweepGraph::GroupCouplings, in the order a member-by-member CSR scan
  /// visits them, so the sum is the same additions in the same order.
  double GroupDelta(const std::vector<int>& group,
                    std::span<const GroupCoupling> couplings) const {
    double delta = 0.0;
    for (int i : group) delta += FlipDelta(i);
    for (const GroupCoupling& edge : couplings) {
      const double si = bits[static_cast<std::size_t>(edge.i)] ? -1.0 : 1.0;
      const double sj = bits[static_cast<std::size_t>(edge.j)] ? -1.0 : 1.0;
      delta += edge.coeff * si * sj;
    }
    return delta;
  }

  /// Commits an accepted group flip: O(sum of member degrees).
  void CommitGroup(const SweepGraph& graph, const std::vector<int>& group,
                   double delta) {
    for (int i : group) CommitFlip(graph, i);
    energy += delta;
  }
};

/// One reusable ReadState per pool worker. thread_local rather than
/// per-read storage so the arena survives across the reads a worker
/// processes (and across TrySolveQuboWithAnnealing calls on that thread).
ReadState& LocalReadState() {
  thread_local ReadState state;
  return state;
}

/// Metropolis acceptance of an energy change `delta` at inverse
/// temperature `beta`: downhill always, uphill with probability
/// exp(-beta * delta), drawing one uniform per uphill proposal. For
/// x = beta * delta > 40, exp(-x) < 2^-53, the smallest non-zero value
/// NextDouble() returns, so any u != 0 rejects without evaluating exp;
/// u == 0 and NaN deltas take the full comparison, exactly as before.
bool MetropolisAccept(double delta, double beta, Rng* rng) {
  if (delta <= 0.0) return true;
  const double x = beta * delta;
  const double u = rng->NextDouble();
  if (x > 40.0 && u != 0.0) return false;
  return u < std::exp(-x);
}

}  // namespace

StatusOr<AnnealResult> TrySolveQuboWithAnnealing(const QuboModel& qubo,
                                                 const AnnealOptions& options) {
  QQO_TRACE_SPAN("anneal.solve");
  const int n = qubo.NumVariables();
  if (n < 1) return InvalidArgumentError("QUBO has no variables");
  if (options.num_reads < 1 || options.num_sweeps < 1) {
    return InvalidArgumentError(
        StrFormat("SA needs num_reads >= 1 and num_sweeps >= 1, got %d / %d",
                  options.num_reads, options.num_sweeps));
  }
  if (options.beta_max > 0.0 &&
      !(options.beta_min > 0.0 && options.beta_max >= options.beta_min)) {
    return InvalidArgumentError(
        StrFormat("SA needs 0 < beta_min <= beta_max, got %g / %g",
                  options.beta_min, options.beta_max));
  }
  QOPT_ASSIGN_OR_RETURN(const SweepGraph graph,
                        BuildSweepGraph(qubo, options.flip_groups));

  double beta_min = options.beta_min;
  double beta_max = options.beta_max;
  if (beta_max <= 0.0) {
    std::tie(beta_min, beta_max) = DefaultBetaRange(graph);
  }
  const double beta_ratio =
      options.num_sweeps > 1
          ? std::pow(beta_max / beta_min,
                     1.0 / static_cast<double>(options.num_sweeps - 1))
          : 1.0;

  // One fully independent read per slot: its own RNG stream, its own
  // state, results indexed by read. Reads then run on the default pool
  // with identical output at any thread count. The deadline is checked
  // at every sweep boundary and at read claim time; reads cut short keep
  // their best-so-far state (anytime semantics), reads that never start
  // stay absent.
  const std::size_t num_reads = static_cast<std::size_t>(options.num_reads);
  std::vector<std::vector<std::uint8_t>> read_bits(num_reads);
  std::vector<double> read_energies(num_reads);
  std::vector<std::uint8_t> read_done(num_reads, 0);
  std::vector<Status> read_status(num_reads);
  std::atomic<bool> timed_out{false};
  const Status loop_status = ThreadPool::Default().ParallelFor(
      num_reads, options.deadline, [&](std::size_t read) {
        QQO_TRACE_SPAN("anneal.read");
        QQO_COUNT("anneal.reads", 1);
        Rng rng(ReadSeed(options.seed, static_cast<int>(read)));
        ReadState& state = LocalReadState();
        state.Reset(graph, qubo, &rng);
        double beta = beta_min;
        bool cut_short = false;
        // QQO_LOOP(anneal.sweep)
        for (int sweep = 0; sweep < options.num_sweeps; ++sweep) {
          QQO_COUNT("anneal.sweeps", 1);
          // A Status is built only once a fault site is armed or the
          // deadline has fired, so the happy path is a few plain tests.
          if (FaultInjection::AnyArmed()) {
            if (Status fault = CheckFaultPoint("annealer.sweep");
                !fault.ok()) {
              read_status[read] = std::move(fault);
              return;  // this read contributes nothing
            }
          }
          if (options.deadline.Cancelled() || options.deadline.Expired()) {
            Status check = options.deadline.Check();
            if (check.code() == StatusCode::kCancelled) {
              read_status[read] = std::move(check);
              return;
            }
            timed_out.store(true, std::memory_order_relaxed);
            cut_short = true;
            break;  // keep the best-so-far state
          }
          for (int i = 0; i < n; ++i) {
            const double delta = state.FlipDelta(i);
            if (MetropolisAccept(delta, beta, &rng)) {
              state.CommitFlip(graph, i);
              state.energy += delta;
            }
          }
          for (std::size_t g = 0; g < options.flip_groups.size(); ++g) {
            const auto& group = options.flip_groups[g];
            const double delta =
                state.GroupDelta(group, graph.GroupCouplings(g));
            if (MetropolisAccept(delta, beta, &rng)) {
              state.CommitGroup(graph, group, delta);
            }
          }
          beta *= beta_ratio;
        }
        // Greedy descent to the local minimum removes residual thermal
        // noise. Skipped when the deadline already fired — it is the one
        // unbounded loop here.
        bool improved = !cut_short;
        while (improved) {
          improved = false;
          for (int i = 0; i < n; ++i) {
            const double delta = state.FlipDelta(i);
            if (delta < -1e-12) {
              state.CommitFlip(graph, i);
              state.energy += delta;
              improved = true;
            }
          }
          for (std::size_t g = 0; g < options.flip_groups.size(); ++g) {
            const auto& group = options.flip_groups[g];
            const double delta =
                state.GroupDelta(group, graph.GroupCouplings(g));
            if (delta < -1e-12) {
              state.CommitGroup(graph, group, delta);
              improved = true;
            }
          }
        }
        read_energies[read] = state.energy;
        // Copy (not move) so the worker's arena keeps its storage for the
        // next read.
        read_bits[read] = state.bits;
        read_done[read] = 1;
      });

  // Cancellation and injected faults fail the whole call; a plain expiry
  // only marks it timed out.
  for (std::size_t read = 0; read < num_reads; ++read) {
    if (!read_status[read].ok()) return read_status[read];
  }
  if (!loop_status.ok()) {
    if (loop_status.code() == StatusCode::kCancelled) return loop_status;
    timed_out.store(true, std::memory_order_relaxed);
  }

  AnnealResult result;
  result.timed_out = timed_out.load(std::memory_order_relaxed);
  std::size_t best_read = num_reads;
  for (std::size_t read = 0; read < num_reads; ++read) {
    if (!read_done[read]) continue;
    result.read_energies.push_back(read_energies[read]);
    if (best_read == num_reads ||
        read_energies[read] < read_energies[best_read]) {
      best_read = read;
    }
  }
  if (best_read == num_reads) {
    // The deadline fired before any read finished a single sweep. The
    // anytime contract still owes the caller a valid state: all-zeros is
    // the canonical deterministic fallback.
    result.best_bits.assign(static_cast<std::size_t>(n), 0);
  } else {
    result.best_bits = std::move(read_bits[best_read]);
  }
  // Recompute exactly to clear accumulated floating-point drift.
  result.best_energy = qubo.Energy(result.best_bits);
  return result;
}

}  // namespace qopt
