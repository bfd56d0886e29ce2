#include "core/quantum_optimizer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <exception>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "anneal/pegasus.h"
#include "bilp/bilp_to_qubo.h"
#include "common/fault_injection.h"
#include "common/retry.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "decompose/decomposer.h"
#include "mqo/mqo_qubo_encoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qubo/brute_force_solver.h"

namespace qopt {
namespace {

/// Above this size the classical fallback uses SA instead of the exact
/// oracle (2^n enumeration stays sub-second up to here).
constexpr int kMaxExactFallbackQubits = 20;
constexpr int kNoQubitCap = std::numeric_limits<int>::max();

/// What the facade knows about a backend; option ranges and input limits
/// are the kernels' own to check.
struct BackendRow {
  Backend backend;
  const char* name;
  bool quantum;  ///< A failure may degrade to a classical stand-in.
  /// The kernel's qubit cap: the largest block a decomposed solve routes
  /// to it. The annealer's is its fabric's vertex count instead.
  int serial_cap;
  /// Largest problem the backend joins a race for as an extra lane (0:
  /// never). Tighter than serial_cap: an extra lane must stay cheap (the
  /// 2^25-amplitude statevector of a 25-qubit QAOA lane is half a
  /// gigabyte the caller never asked for).
  int race_cap;
};

/// One row per Backend, in enum order. The order is also the winner
/// tie-break rank: on equal energy the lower rank wins, independent of
/// which lane finished first. The exact oracle ranks first; it is the one
/// *decisive* lane, since its completion proves the global optimum, so it
/// may cancel the survivors without ever changing the selected winner.
constexpr BackendRow kBackendTable[] = {
    {Backend::kExact, "exact", false, kMaxBruteForceVariables,
     kMaxExactFallbackQubits},
    {Backend::kSimulatedAnnealing, "sa", false, kNoQubitCap, kNoQubitCap},
    {Backend::kQaoa, "qaoa", true, kMaxStatevectorQubits, 16},
    {Backend::kVqe, "vqe", true, kMaxStatevectorQubits, 0},
    {Backend::kAdiabatic, "adiabatic", true, kMaxAdiabaticQubits, 14},
    {Backend::kAnnealerEmulation, "annealer", true, kNoQubitCap, 0},
};

constexpr bool RowsFollowTheEnum() {
  int index = 0;
  for (const BackendRow& row : kBackendTable) {
    if (static_cast<int>(row.backend) != index++) return false;
  }
  return index == static_cast<int>(Backend::kAnnealerEmulation) + 1;
}
static_assert(RowsFollowTheEnum(), "one kBackendTable row per Backend");

const BackendRow& Row(Backend backend) {
  return kBackendTable[static_cast<std::size_t>(backend)];
}

/// The largest QUBO `backend` can take on: its kernel's qubit cap, or for
/// the annealer its Pegasus fabric's vertex count.
int QubitCap(Backend backend, int pegasus_m) {
  return backend == Backend::kAnnealerEmulation
             ? MakePegasus(pegasus_m).NumVertices()
             : Row(backend).serial_cap;
}

/// What a backend returned: the bit string it found and its energy.
struct BackendResult {
  std::vector<std::uint8_t> bits;
  double energy = 0.0;
  /// The backend expired mid-run but returned a valid best-so-far state
  /// (anytime backends: SA and the annealer emulation).
  bool timed_out = false;
};

/// Why a lane runs; indexes kLaneSites, its trace span. Race lanes are
/// also the `race.lane` fault site, and a salvage lane swaps the SA
/// options for the cheapest anytime read (see SalvageRead).
enum class LaneKind { kAttempt, kSalvage, kFallback, kRace };
constexpr const char* kLaneSites[] = {"solve.attempt", "solve.salvage",
                                      "solve.fallback", "race.lane"};

/// The dispatch primitive: one backend attempt with its seed and stage
/// deadline. Serial and race are two schedules over lanes.
struct Lane {
  Backend backend = Backend::kSimulatedAnnealing;
  std::uint64_t seed = 0;
  Deadline deadline;
  LaneKind kind = LaneKind::kAttempt;
};

/// What one lane produced: an OK status with the backend's state, or the
/// failure that ended it.
struct LaneResult {
  Backend backend = Backend::kSimulatedAnnealing;
  Status status = OkStatus();
  BackendResult result;
  double elapsed_ms = 0.0;
};

/// The salvage lane's SA options: one read of at most 256 sweeps, the
/// cheapest stand-in that still returns a valid state on what is left of
/// the budget.
AnnealOptions SalvageRead(const AnnealOptions& anneal) {
  AnnealOptions cheap;
  cheap.num_reads = 1;
  cheap.num_sweeps = std::max(1, std::min(anneal.num_sweeps, 256));
  return cheap;
}

/// Runs `lane`'s backend kernel with the lane's seed and deadline, which
/// replace whatever the kernel options carry. Every option range and
/// qubit cap is the kernel's to check; the facade only adds the empty-QUBO
/// check (the exact oracle accepts n = 0) and the annealer's Pegasus
/// fabric.
StatusOr<BackendResult> TrySolveQuboWithBackend(const QuboModel& qubo,
                                                const OptimizerOptions& options,
                                                const Lane& lane) {
  const int n = qubo.NumVariables();
  if (n < 1) return InvalidArgumentError("QUBO has no variables");
  switch (lane.backend) {
    case Backend::kExact: {
      QOPT_ASSIGN_OR_RETURN(BruteForceResult exact,
                            TrySolveQuboBruteForce(qubo, lane.deadline));
      return BackendResult{std::move(exact.best_bits), exact.best_energy};
    }
    case Backend::kSimulatedAnnealing: {
      AnnealOptions anneal = lane.kind == LaneKind::kSalvage
                                 ? SalvageRead(options.anneal)
                                 : options.anneal;
      anneal.seed = lane.seed;
      anneal.deadline = lane.deadline;
      QOPT_ASSIGN_OR_RETURN(AnnealResult sa,
                            TrySolveQuboWithAnnealing(qubo, anneal));
      return BackendResult{std::move(sa.best_bits), sa.best_energy,
                           sa.timed_out};
    }
    case Backend::kQaoa:
    case Backend::kVqe: {
      VariationalOptions variational = options.variational;
      variational.seed = lane.seed;
      variational.deadline = lane.deadline;
      QOPT_ASSIGN_OR_RETURN(VariationalResult hybrid,
                            lane.backend == Backend::kQaoa
                                ? TrySolveQuboWithQaoa(qubo, variational)
                                : TrySolveQuboWithVqe(qubo, variational));
      return BackendResult{std::move(hybrid.best_bits), hybrid.best_energy};
    }
    case Backend::kAdiabatic: {
      AdiabaticOptions adiabatic = options.adiabatic;
      adiabatic.seed = lane.seed;
      adiabatic.deadline = lane.deadline;
      QOPT_ASSIGN_OR_RETURN(AdiabaticResult evolved,
                            TrySolveQuboAdiabatically(qubo, adiabatic));
      return BackendResult{std::move(evolved.best_bits), evolved.best_energy};
    }
    case Backend::kAnnealerEmulation: {
      EmbeddedSolveOptions embedded = options.embedded;
      embedded.embed.seed = lane.seed;
      embedded.anneal.seed = lane.seed;
      embedded.embed.deadline = lane.deadline;
      embedded.anneal.deadline = lane.deadline;
      const SimpleGraph topology = MakePegasus(options.pegasus_m);
      StatusOr<EmbeddedSolveResult> embedded_result =
          TrySolveQuboOnTopology(qubo, topology, embedded);
      if (!embedded_result.ok()) {
        if (embedded_result.status().code() != StatusCode::kUnavailable) {
          return embedded_result.status();
        }
        // A QUBO larger than the fabric can never embed: no retry helps.
        if (n > topology.NumVertices()) {
          return ResourceExhaustedError(StrFormat(
              "QUBO has %d variables but the Pegasus P%d fabric offers only "
              "%d qubits; use a larger pegasus_m",
              n, options.pegasus_m, topology.NumVertices()));
        }
        return UnavailableError(StrFormat(
            "no minor embedding of the %d-variable QUBO into Pegasus P%d "
            "was found; use a larger pegasus_m",
            n, options.pegasus_m));
      }
      return BackendResult{std::move(embedded_result->bits),
                           embedded_result->energy,
                           embedded_result->timed_out};
    }
  }
  return InternalError("unknown backend");
}

/// One dispatched solve as the facade reports it.
struct DispatchOutcome {
  BackendResult result;
  Backend backend_used = Backend::kSimulatedAnnealing;
  bool degraded = false;
  std::string degradation_reason;
  SolveStats stats;
};

/// Runs one lane: the only code that executes a backend attempt, counts it
/// in solve.attempts and turns a throwing backend into a Status.
LaneResult RunLane(const QuboModel& qubo, const OptimizerOptions& options,
                   const Lane& lane) {
  QQO_TRACE_SPAN(kLaneSites[static_cast<int>(lane.kind)]);
  QQO_COUNT("solve.attempts", 1);
  Stopwatch watch;
  StatusOr<BackendResult> run = [&]() -> StatusOr<BackendResult> {
    if (lane.kind == LaneKind::kRace) {
      QOPT_RETURN_IF_ERROR(CheckFaultPoint("race.lane"));
    }
    try {
      return TrySolveQuboWithBackend(qubo, options, lane);
    } catch (const std::exception& e) {
      return InternalError(StrFormat("%s lane threw: %s",
                                     BackendName(lane.backend).c_str(),
                                     e.what()));
    }
  }();
  LaneResult out;
  out.backend = lane.backend;
  if (run.ok()) {
    out.result = *std::move(run);
  } else {
    out.status = run.status();
  }
  out.elapsed_ms = watch.ElapsedMillis();
  return out;
}

/// Per-lane attribution of a raced solve.
RaceLaneStats LaneStats(const LaneResult& lane, bool won) {
  RaceLaneStats stats;
  stats.backend = lane.backend;
  stats.elapsed_ms = lane.elapsed_ms;
  stats.won = won;
  const StatusCode code = lane.status.code();
  if (code == StatusCode::kOk) {
    stats.outcome = "ok";
    stats.incumbent = true;
    stats.incumbent_energy = lane.result.energy;
  } else if (code == StatusCode::kCancelled) {
    stats.outcome = "cancelled";
  } else if (code == StatusCode::kDeadlineExceeded) {
    stats.outcome = "deadline";
  } else {
    stats.outcome = StatusCodeName(code);
    for (char& c : stats.outcome) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return stats;
}

/// The one reducer: turns the lanes a schedule ran into the dispatch
/// outcome, and alone owns the dispatch invariants:
///   - a cancelled caller gets kCancelled, never a retried, degraded or
///     reported result;
///   - the requested lane's kInvalidArgument always surfaces;
///   - when no lane succeeded, the requested lane's failure surfaces;
///   - the winner is the minimum of (energy, backend) over the successful
///     lanes (kBackendTable's rank order), so it never depends on which
///     lane finished first;
///   - a timed-out winner is degraded, and so is a stand-in that won after
///     the requested lane genuinely failed (not merely out-raced, nor
///     cancelled by the decisive oracle);
///   - attempts counts every lane run.
/// `lanes` holds one slot per lane, the requested backend's among them
/// (for serial: its latest retry); `lanes_run` counts retries too.
StatusOr<DispatchOutcome> ReduceLanes(const OptimizerOptions& options,
                                      std::span<LaneResult> lanes,
                                      int lanes_run, bool raced,
                                      const Stopwatch& watch) {
  const Deadline& deadline = options.budget.deadline;
  if (deadline.Cancelled()) {
    for (const LaneResult& lane : lanes) {
      if (lane.status.code() == StatusCode::kCancelled) return lane.status;
    }
    return deadline.Check();
  }
  const LaneResult& requested = *std::find_if(
      lanes.begin(), lanes.end(),
      [&](const LaneResult& lane) { return lane.backend == options.backend; });
  // Backend option validation runs before any deadline poll, so this
  // failure is timing-independent.
  if (requested.status.code() == StatusCode::kInvalidArgument) {
    return requested.status;
  }
  LaneResult* winner = nullptr;
  for (LaneResult& lane : lanes) {
    if (!lane.status.ok()) continue;
    if (winner == nullptr ||
        std::pair(lane.result.energy, lane.backend) <
            std::pair(winner->result.energy, winner->backend)) {
      winner = &lane;
    }
  }
  if (winner == nullptr) return requested.status;

  DispatchOutcome outcome;
  outcome.backend_used = winner->backend;
  const bool timed_out = winner->result.timed_out;
  const bool stood_in = winner->backend != options.backend &&
                        !requested.status.ok() &&
                        requested.status.code() != StatusCode::kCancelled;
  outcome.degraded = timed_out || stood_in;
  // When both apply, serial names the failure the stand-in replaced and
  // race names the truncated winner.
  if (timed_out && (raced || !stood_in)) {
    outcome.degradation_reason = StrFormat(
        "%s %s stopped at the deadline with its best-so-far state",
        BackendName(winner->backend).c_str(),
        raced ? "race winner" : "backend");
  } else if (stood_in) {
    outcome.degradation_reason =
        StrFormat("%s backend failed (%s)", BackendName(options.backend).c_str(),
                  requested.status.ToString().c_str());
  }
  if (raced) {
    outcome.stats.lanes.reserve(lanes.size());
    for (const LaneResult& lane : lanes) {
      outcome.stats.lanes.push_back(LaneStats(lane, &lane == winner));
    }
  }
  outcome.result = std::move(winner->result);
  outcome.stats.attempts = lanes_run;
  outcome.stats.timed_out = timed_out;
  outcome.stats.elapsed_ms = watch.ElapsedMillis();
  return outcome;
}

// ---------------------------------------------------------------------------
// Serial schedule (DispatchMode::kSerial).
// ---------------------------------------------------------------------------

/// The serial successor of the requested backend's last lane, picked from
/// its `failure`. None when the caller opted out of fallback, the backend
/// is classical, the input was invalid or the lane was cancelled. A
/// quantum stage that hit its wall gets a salvage read while budget
/// remains; any other quantum failure gets the classical fallback — exact
/// up to kMaxExactFallbackQubits, SA above. Either runs on the full
/// remaining budget with the next seed of the attempt sequence, so its
/// RNG stream never repeats an earlier attempt's.
std::optional<Lane> StandInLane(int num_variables,
                                const OptimizerOptions& options,
                                const Status& failure, int attempt) {
  const StatusCode code = failure.code();
  if (failure.ok() || !options.classical_fallback ||
      !Row(options.backend).quantum ||
      code == StatusCode::kInvalidArgument || code == StatusCode::kCancelled) {
    return std::nullopt;
  }
  const Deadline& deadline = options.budget.deadline;
  Lane lane{Backend::kSimulatedAnnealing, AttemptSeed(options.seed, attempt),
            deadline, LaneKind::kFallback};
  if (code == StatusCode::kDeadlineExceeded) {
    // The quantum stage burned its 80% share; salvage on the reserved
    // slack, if any is left.
    if (!deadline.Check().ok()) return std::nullopt;
    lane.kind = LaneKind::kSalvage;
  } else if (num_variables <= kMaxExactFallbackQubits) {
    lane.backend = Backend::kExact;
  }
  return lane;
}

/// Serial schedule: the requested backend's lanes one after another —
/// a kUnavailable failure retries at once with the next AttemptSeed while
/// attempts and budget remain — then at most one stand-in lane
/// (StandInLane). A quantum lane gets at most 80% of the remaining budget,
/// reserving slack for the stand-in; classical lanes get the full
/// remainder.
StatusOr<DispatchOutcome> RunSerial(const QuboModel& qubo,
                                    const OptimizerOptions& options) {
  const SolveBudget& budget = options.budget;
  QQO_TRACE_SPAN("solve.dispatch");
  Stopwatch watch;
  // An already-exhausted budget (e.g. --timeout-ms=0) fails fast before
  // any backend runs.
  QOPT_RETURN_IF_ERROR(budget.deadline.Check());

  // [0]: the requested backend's latest lane; [1]: the stand-in.
  std::array<LaneResult, 2> lanes;
  const int max_attempts = std::max(1, budget.max_attempts);
  int run = 0;
  for (;;) {
    Lane lane{options.backend, AttemptSeed(options.seed, ++run),
              budget.deadline, LaneKind::kAttempt};
    if (Row(options.backend).quantum && !budget.deadline.unbounded()) {
      lane.deadline = budget.deadline.WithBudgetMillis(
          0.8 * budget.deadline.RemainingMillis());
    }
    lanes[0] = RunLane(qubo, options, lane);
    if (run == max_attempts || !IsRetryableStatus(lanes[0].status.code())) {
      break;
    }
    // A cancel or expiry between attempts ends the retries with its own
    // status, which the reducer and StandInLane act on.
    if (Status left = budget.deadline.Check(); !left.ok()) {
      lanes[0].status = std::move(left);
      break;
    }
  }
  const std::optional<Lane> stand_in =
      StandInLane(qubo.NumVariables(), options, lanes[0].status, run + 1);
  if (!stand_in) {
    return ReduceLanes(options, std::span(lanes).first(1), run,
                       /*raced=*/false, watch);
  }
  lanes[1] = RunLane(qubo, options, *stand_in);
  return ReduceLanes(options, lanes, run + 1, /*raced=*/false, watch);
}

// ---------------------------------------------------------------------------
// Race schedule (DispatchMode::kRace).
// ---------------------------------------------------------------------------

/// The deterministic lane set for one raced solve: the requested backend
/// plus every backend whose race_cap fits the problem size, in rank
/// order. Depends only on (num_variables, options), never on timing. With
/// classical_fallback off the portfolio collapses to the requested
/// backend alone — racing stand-ins *is* a fallback by another name, and
/// --no-fallback promised the caller we would not do that.
std::vector<Backend> RacePortfolio(int num_variables,
                                   const OptimizerOptions& options) {
  std::vector<Backend> portfolio;
  for (const BackendRow& row : kBackendTable) {
    if (row.backend == options.backend ||
        (options.classical_fallback && num_variables <= row.race_cap)) {
      portfolio.push_back(row.backend);
    }
  }
  return portfolio;
}

/// One race lane (named helper: runs inside the race's ParallelFor, where
/// any nested ParallelFor the backend issues runs inline serially). The
/// exact oracle is decisive: its optimum outranks anything a survivor
/// could still return, so on success it cancels them instead of paying
/// for their tail.
LaneResult RunRaceLane(const QuboModel& qubo, const OptimizerOptions& options,
                       const Lane& lane, CancelToken* race_token) {
  LaneResult result = RunLane(qubo, options, lane);
  if (result.status.ok() && lane.backend == Backend::kExact) {
    race_token->Cancel();
  } else if (result.status.code() == StatusCode::kCancelled) {
    QQO_COUNT("race.cancelled_lanes", 1);
  }
  return result;
}

/// Race schedule: every RacePortfolio lane runs at once on the default
/// pool. The calling thread claims lanes itself through ParallelFor, so a
/// raced solve running on a pool worker never waits for lanes queued
/// behind it. Each lane writes its own slot and ReduceLanes picks the
/// winner after the join, so the report does not depend on the thread
/// count. At pool size 1 the lanes run inline in rank order: the exact
/// lane finishes first and the survivors stop at their first deadline
/// poll, so the race costs about one exact solve. When at most one lane's
/// backend can take the problem at all (QubitCap), the others only refuse
/// it, so the lanes run in rank order on this thread instead: the one
/// lane that does the work keeps its kernels parallel rather than running
/// single-threaded inside a pool worker.
StatusOr<DispatchOutcome> RunRace(const QuboModel& qubo,
                                  const OptimizerOptions& options) {
  const SolveBudget& budget = options.budget;
  QQO_TRACE_SPAN("solve.race");
  Stopwatch watch;
  QOPT_RETURN_IF_ERROR(budget.deadline.Check());

  const std::vector<Backend> portfolio =
      RacePortfolio(qubo.NumVariables(), options);
  QQO_COUNT("race.lanes", static_cast<long long>(portfolio.size()));
  // Lanes keep the caller's wall-clock budget but swap in a race token
  // linked to the caller's own, so a caller cancel reaches every lane at
  // its next poll with no forwarding thread. Deadline expiry is never
  // turned into a cancel: the anytime backends must still return their
  // best-so-far state (OK + timed_out) when time runs out.
  CancelToken race_token(budget.deadline.token());
  const Deadline deadline = budget.deadline.WithToken(&race_token);
  std::vector<LaneResult> lanes(portfolio.size());
  const auto run_lane = [&](std::size_t i) {
    lanes[i] = RunRaceLane(
        qubo, options, {portfolio[i], options.seed, deadline, LaneKind::kRace},
        &race_token);
  };
  const int n = qubo.NumVariables();
  const auto fits = [&](Backend backend) {
    return n <= QubitCap(backend, options.pegasus_m);
  };
  if (std::count_if(portfolio.begin(), portfolio.end(), fits) <= 1) {
    // A lone viable lane runs on this thread, so its kernels stay
    // parallel.
    for (std::size_t i = 0; i < lanes.size(); ++i) run_lane(i);
  } else {
    // NOLINTNEXTLINE(qqo-deadline-plumbing): every lane must start so the requested lane's option errors surface; each lane polls `deadline` itself
    ThreadPool::Default().ParallelFor(lanes.size(), run_lane);
  }
  return ReduceLanes(options, lanes, static_cast<int>(lanes.size()),
                     /*raced=*/true, watch);
}

// ---------------------------------------------------------------------------
// Hybrid decomposition (OptimizerOptions::decompose > 0).
// ---------------------------------------------------------------------------

/// Solves one clamped block
/// (named helper: runs inside the decomposer's ParallelFor workers, where
/// any nested ParallelFor the backends issue executes inline serially).
/// PinSignDefiniteBits first pins every bit whose best value the rest of
/// the block cannot change (DESIGN.md "Decomposition"). A block pinned
/// whole is solved in place; otherwise only the core of free bits goes
/// through the serial schedule, routed to the requested backend when it
/// fits `cap` and to SA otherwise, and its bits are scattered back into
/// the block. Retries are disabled per block — a transient failure just
/// keeps the incumbent for this block — and the per-block SA budget is
/// capped so a 400-block round costs what one facade SA solve costs, not
/// 400 of them.
/// Invalid options stay invalid: the kernel's kInvalidArgument ends the
/// decomposition (see SubproblemSolver).
StatusOr<SubproblemResult> SolveDecomposeSubproblem(
    const QuboModel& subproblem, std::uint64_t seed, const Deadline& deadline,
    const OptimizerOptions& base, int cap) {
  QOPT_RETURN_IF_ERROR(CheckFaultPoint("decompose.subproblem"));
  PinnedQubo pinned = PinSignDefiniteBits(subproblem);
  if (pinned.free.empty()) {
    QQO_COUNT("decompose.blocks_forced", 1);
    return SubproblemResult{std::move(pinned.bits)};
  }
  QQO_COUNT("decompose.bits_pinned",
            subproblem.NumVariables() - pinned.core.NumVariables());
  OptimizerOptions options = base;
  options.backend = pinned.core.NumVariables() <= cap
                        ? base.backend
                        : Backend::kSimulatedAnnealing;
  options.seed = seed;
  options.budget = SolveBudget{deadline};
  options.anneal.num_reads = std::min(base.anneal.num_reads, 8);
  options.anneal.num_sweeps = std::min(base.anneal.num_sweeps, 1000);
  QOPT_ASSIGN_OR_RETURN(DispatchOutcome outcome,
                        RunSerial(pinned.core, options));
  return SubproblemResult{pinned.Expand(outcome.result.bits)};
}

/// Decomposed dispatch: run the qbsolv-style round loop with the serial
/// schedule as the block solver, then surface the incumbent as a regular
/// dispatch outcome. backend_used reports the *requested* backend — the
/// blocks routed through it wherever they fit its serial cap — and a
/// deadline-truncated loop degrades (timed_out => degraded-or-error). The
/// cap (QubitCap; embedding failures below the annealer's fall back per
/// block inside the subproblem dispatch) is found once per decomposed
/// solve rather than once per block.
StatusOr<DispatchOutcome> DispatchDecomposed(const QuboModel& qubo,
                                             const OptimizerOptions& options) {
  QQO_TRACE_SPAN("solve.decompose");
  Stopwatch watch;
  DecomposeOptions decompose;
  decompose.max_subproblem_size = options.decompose;
  decompose.seed = options.seed;
  decompose.deadline = options.budget.deadline;
  const int cap = QubitCap(options.backend, options.pegasus_m);
  const SubproblemSolver solver =
      [&options, cap](const QuboModel& subproblem, std::uint64_t seed,
                      const Deadline& deadline) {
        return SolveDecomposeSubproblem(subproblem, seed, deadline, options,
                                        cap);
      };
  QOPT_ASSIGN_OR_RETURN(DecomposeResult solved,
                        SolveQuboDecomposed(qubo, decompose, solver));
  DispatchOutcome outcome;
  outcome.result.bits = std::move(solved.bits);
  outcome.result.energy = solved.energy;
  outcome.result.timed_out = solved.timed_out;
  outcome.backend_used = options.backend;
  outcome.stats.attempts = std::max(1, solved.subproblems);
  outcome.stats.timed_out = solved.timed_out;
  outcome.stats.decompose_rounds = solved.rounds;
  outcome.stats.decompose_subproblems = solved.subproblems;
  outcome.stats.decompose_round_energies = std::move(solved.round_energies);
  if (solved.timed_out) {
    outcome.degraded = true;
    outcome.degradation_reason =
        "decomposition stopped at the deadline with its best incumbent";
  }
  outcome.stats.elapsed_ms = watch.ElapsedMillis();
  return outcome;
}

/// Routes one QUBO solve to the configured dispatch strategy after
/// checking the two options that belong to the facade rather than to a
/// kernel.
StatusOr<DispatchOutcome> DispatchQubo(const QuboModel& qubo,
                                       const OptimizerOptions& options) {
  if (options.decompose != 0 && options.decompose < 2) {
    return InvalidArgumentError(StrFormat(
        "decompose must be 0 (off) or >= 2, got %d", options.decompose));
  }
  if (options.backend == Backend::kAnnealerEmulation &&
      options.pegasus_m < 2) {
    return InvalidArgumentError(
        StrFormat("pegasus_m must be >= 2, got %d", options.pegasus_m));
  }
  if (options.decompose > 0 && qubo.NumVariables() > options.decompose) {
    return DispatchDecomposed(qubo, options);
  }
  return options.dispatch == DispatchMode::kRace ? RunRace(qubo, options)
                                                 : RunSerial(qubo, options);
}

}  // namespace

std::string BackendName(Backend backend) { return Row(backend).name; }

StatusOr<Backend> ParseBackend(const std::string& name) {
  std::string known;
  for (const BackendRow& row : kBackendTable) {
    if (name == row.name) return row.backend;
    known += known.empty() ? row.name : std::string(", ") + row.name;
  }
  return InvalidArgumentError(
      StrFormat("unknown backend \"%s\" (known: %s)", name.c_str(),
                known.c_str()));
}

std::string DispatchModeName(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kSerial:
      return "serial";
    case DispatchMode::kRace:
      return "race";
  }
  return "unknown";
}

StatusOr<DispatchMode> ParseDispatchMode(const std::string& text) {
  if (text == "serial") return DispatchMode::kSerial;
  if (text == "race") return DispatchMode::kRace;
  return InvalidArgumentError(StrFormat(
      "unknown dispatch mode '%s' (expected serial|race)", text.c_str()));
}

StatusOr<EncodedProblem<MqoSolution>> EncodeMqoProblem(
    const MqoProblem& problem) {
  QOPT_ASSIGN_OR_RETURN(MqoQuboEncoding encoding, TryEncodeMqoAsQubo(problem));
  return EncodedProblem<MqoSolution>{
      std::move(encoding.qubo),
      [&problem](const std::vector<std::uint8_t>& bits)
          -> std::optional<MqoSolution> {
        MqoSolution solution;
        if (!problem.DecodeBits(bits, &solution.selection)) return {};
        solution.cost = problem.SelectionCost(solution.selection);
        return solution;
      }};
}

StatusOr<EncodedProblem<JoinOrderSolution>> EncodeJoinOrderProblem(
    const QueryGraph& graph, const JoinOrderEncoderOptions& encoder_options) {
  QOPT_ASSIGN_OR_RETURN(JoinOrderEncoding encoding,
                        TryEncodeJoinOrderAsBilp(graph, encoder_options));
  QuboModel qubo = EncodeBilpAsQubo(encoding.bilp).qubo;
  return EncodedProblem<JoinOrderSolution>{
      std::move(qubo),
      [&graph, encoding = std::move(encoding)](
          const std::vector<std::uint8_t>& bits)
          -> std::optional<JoinOrderSolution> {
        JoinOrderSolution solution;
        if (!DecodeJoinOrder(encoding, bits, &solution.order)) return {};
        solution.cost = CoutCost(graph, solution.order);
        return solution;
      }};
}

template <typename Solution>
StatusOr<SolveReport<Solution>> TrySolveEncoded(
    const ProblemEncoder<Solution>& encode, const OptimizerOptions& options) {
  QQO_TRACE_SPAN((std::is_same_v<Solution, MqoSolution> ? "solve.mqo"
                                                       : "solve.join"));
  QOPT_RETURN_IF_ERROR(options.budget.deadline.Check());
  QOPT_ASSIGN_OR_RETURN(const EncodedProblem<Solution> problem, encode());
  SolveReport<Solution> report;
  report.qubits = problem.qubo.NumVariables();
  report.quadratic_terms = problem.qubo.NumQuadraticTerms();
  QOPT_ASSIGN_OR_RETURN(DispatchOutcome outcome,
                        DispatchQubo(problem.qubo, options));
  report.backend_used = outcome.backend_used;
  report.degraded = outcome.degraded;
  report.degradation_reason = std::move(outcome.degradation_reason);
  report.stats = std::move(outcome.stats);
  report.qubo_energy = outcome.result.energy;
  if (std::optional<Solution> solution = problem.decode(outcome.result.bits)) {
    report.valid = true;
    report.solution = *std::move(solution);
  }
  report.bits = std::move(outcome.result.bits);
  return report;
}

template StatusOr<MqoSolveReport> TrySolveEncoded(
    const ProblemEncoder<MqoSolution>&, const OptimizerOptions&);
template StatusOr<JoinOrderSolveReport> TrySolveEncoded(
    const ProblemEncoder<JoinOrderSolution>&, const OptimizerOptions&);

StatusOr<MqoSolveReport> TrySolveMqo(const MqoProblem& problem,
                                     const OptimizerOptions& options) {
  return TrySolveEncoded<MqoSolution>(
      [&problem] { return EncodeMqoProblem(problem); }, options);
}

StatusOr<JoinOrderSolveReport> TrySolveJoinOrder(
    const QueryGraph& graph, const JoinOrderEncoderOptions& encoder_options,
    const OptimizerOptions& options) {
  return TrySolveEncoded<JoinOrderSolution>(
      [&] { return EncodeJoinOrderProblem(graph, encoder_options); }, options);
}

}  // namespace qopt
