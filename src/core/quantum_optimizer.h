#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "anneal/embedding_composite.h"
#include "anneal/simulated_annealer.h"
#include "joinorder/join_order.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "mqo/mqo_baselines.h"
#include "mqo/mqo_problem.h"
#include "qubo/qubo_model.h"
#include "variational/adiabatic.h"
#include "variational/variational_solver.h"

namespace qopt {

/// Solver backends of the unified optimizer facade. All quantum backends
/// run on classical simulation substrates (statevector / simulated
/// annealing), mirroring the paper's all-simulation methodology.
enum class Backend {
  kExact,               ///< Brute-force QUBO ground state (oracle).
  kSimulatedAnnealing,  ///< Classical SA on the QUBO (neal equivalent).
  kQaoa,                ///< Hybrid QAOA on the statevector simulator.
  kVqe,                 ///< Hybrid VQE on the statevector simulator.
  kAdiabatic,           ///< Trotterized adiabatic evolution (Sec. 3.5).
  kAnnealerEmulation,   ///< Minor-embed into a Pegasus fabric, then SA.
};

/// Readable backend name ("exact", "sa", "qaoa", "vqe", "adiabatic",
/// "annealer").
std::string BackendName(Backend backend);

/// Inverse of BackendName; any other name is kInvalidArgument.
StatusOr<Backend> ParseBackend(const std::string& name);

/// How the facade schedules backends for one solve.
enum class DispatchMode {
  /// Run the requested backend (with retries), then degrade to a
  /// classical stand-in when it fails recoverably.
  kSerial,
  /// Portfolio racing: run the requested backend plus cheap classical
  /// and quantum lanes concurrently on the default ThreadPool and return
  /// the winner. Winner selection is deterministic (energy, then a fixed
  /// backend priority order) regardless of thread count or lane timing.
  kRace,
};

/// Readable dispatch-mode name ("serial", "race").
std::string DispatchModeName(DispatchMode mode);

/// Parses "serial" / "race"; anything else is kInvalidArgument.
StatusOr<DispatchMode> ParseDispatchMode(const std::string& text);

/// Wall-clock / retry budget for one facade solve.
struct SolveBudget {
  /// Overall deadline (with optional CancelToken) for the solve,
  /// including retries and any classical fallback. A quantum backend
  /// stage is clamped to 80% of the remaining budget so that a cheap
  /// classical fallback still fits when the stage times out.
  Deadline deadline;
  /// Total backend attempts (1 = no retries). Only kUnavailable failures
  /// are retried, at once and re-seeded from the attempt index
  /// (AttemptSeed), so e.g. embedding retries explore fresh vertex orders.
  int max_attempts = 1;
};

/// Per-lane attribution for a raced solve (DispatchMode::kRace). One
/// entry per launched lane, always ordered by backend priority rank so
/// the vector is deterministic even though lane *timings* are not.
struct RaceLaneStats {
  Backend backend = Backend::kSimulatedAnnealing;
  /// "ok", "cancelled", "deadline", or an error code name ("unavailable",
  /// "internal", ...) when the lane failed.
  std::string outcome;
  double elapsed_ms = 0.0;    ///< Wall-clock of this lane (not stable).
  /// Energy of the state this lane returned; meaningful only when
  /// incumbent == true.
  double incumbent_energy = 0.0;
  bool incumbent = false;     ///< Lane returned a state (outcome "ok").
  bool won = false;           ///< Lane produced the returned result.
};

/// Per-solve accounting, filled on every successful report.
struct SolveStats {
  /// Backend attempts consumed (>= 1). Counts every real backend run:
  /// retried attempts, the salvage SA read after a quantum-stage timeout
  /// and the classical fallback solve all increment this.
  int attempts = 1;
  double elapsed_ms = 0.0;  ///< Wall-clock of the dispatch (all attempts).
  /// The solve's own deadline expired along the way and the returned
  /// result is budget-truncated (e.g. the salvage read itself ran out of
  /// time). A quantum-stage timeout whose salvage completed comfortably
  /// inside the reserved slack is reported as degraded, NOT timed_out.
  /// Invariant: timed_out implies either degraded == true on the report
  /// or a kDeadlineExceeded error instead of a report.
  bool timed_out = false;
  /// Raced dispatch only: one entry per launched lane, in backend
  /// priority order. Empty for serial dispatch.
  std::vector<RaceLaneStats> lanes;
  /// Decomposed dispatch only (OptimizerOptions::decompose > 0 on a
  /// problem larger than one block): rounds completed, subproblem solves
  /// dispatched, and the incumbent energy after each round. All three are
  /// deterministic (no wall-clock content) whenever the deadline did not
  /// truncate the solve. Zero / empty otherwise.
  int decompose_rounds = 0;
  int decompose_subproblems = 0;
  std::vector<double> decompose_round_energies;
};

/// Options shared by the facade entry points.
struct OptimizerOptions {
  Backend backend = Backend::kSimulatedAnnealing;
  /// Serial quantum-then-fallback dispatch (default) or portfolio racing
  /// across backends (see DispatchMode). Race mode keeps the *report*
  /// byte-identical across thread counts; per-lane timing lives in
  /// SolveStats::lanes and is not stable.
  DispatchMode dispatch = DispatchMode::kSerial;
  /// Deadline / retry budget for the whole solve.
  SolveBudget budget;
  /// The kernels' own options. Their `seed` and `deadline` sub-fields
  /// (anneal, variational, adiabatic, embedded.embed, embedded.anneal)
  /// belong to the facade: every lane overwrites them with the seed it
  /// derives from `seed` and the stage deadline it carves from `budget`,
  /// so values set here are ignored.
  VariationalOptions variational;      ///< For kQaoa / kVqe.
  AdiabaticOptions adiabatic;          ///< For kAdiabatic.
  AnnealOptions anneal;                ///< For kSimulatedAnnealing.
  EmbeddedSolveOptions embedded;       ///< For kAnnealerEmulation.
  /// Pegasus size for kAnnealerEmulation (P16 = Advantage; smaller
  /// fabrics keep demos fast).
  int pegasus_m = 4;
  std::uint64_t seed = 0;
  /// Hybrid decomposition (qbsolv-style, see DESIGN.md "Decomposition"):
  /// when > 0 and the encoded QUBO has more variables than this, the
  /// facade partitions it into blocks of at most `decompose` variables,
  /// solves each block through the serial backend pipeline (the requested
  /// backend where the block fits its qubit budget, SA otherwise) and
  /// stitches with a tabu refinement loop. 0 disables decomposition; a
  /// problem that already fits in one block dispatches normally. Values
  /// below 2 (other than 0) are kInvalidArgument. Per-block seeds derive
  /// from `seed` via the AttemptSeed sequence, so decomposed solves stay
  /// byte-identical across QQO_THREADS (absent deadline truncation).
  int decompose = 0;
  /// Graceful degradation: when a *quantum* backend fails recoverably
  /// (no minor embedding, circuit exceeds the simulable qubit budget,
  /// ...), retry with a classical backend (exact for small problems,
  /// simulated annealing otherwise) and mark the report as degraded
  /// instead of failing the whole solve.
  bool classical_fallback = true;
};

/// Outcome of one facade solve, for either problem kind: the QUBO's size,
/// the dispatch's accounting and the plan decoded from the returned bits.
template <typename Solution>
struct SolveReport {
  /// The bits decode to a plan: one per query (MQO) or a permutation
  /// (join order).
  bool valid = false;
  Solution solution;        ///< Meaningful only when valid.
  double qubo_energy = 0.0; ///< Energy of the returned bit string.
  int qubits = 0;
  int quadratic_terms = 0;
  /// Backend that actually produced the bits (differs from
  /// options.backend after a degraded fallback).
  Backend backend_used = Backend::kSimulatedAnnealing;
  bool degraded = false;  ///< Quantum backend failed; classical stood in.
  std::string degradation_reason;  ///< Why, when degraded.
  SolveStats stats;       ///< Attempt / timing accounting.
  /// Raw QUBO assignment the report was decoded from (one byte per
  /// variable). The serving layer's canonical-form solution cache stores
  /// this so isomorphic repeat requests can transport the solution.
  std::vector<std::uint8_t> bits;
};

using MqoSolveReport = SolveReport<MqoSolution>;
using JoinOrderSolveReport = SolveReport<JoinOrderSolution>;

/// A workload of either kind encoded as one QUBO, with the way back from a
/// solver's bits to a priced plan. Past the encoder both kinds share one
/// path: the facade's solve body and the serving layer's cache.
template <typename Solution>
struct EncodedProblem {
  QuboModel qubo;
  /// The plan `bits` describe, with its cost; nullopt when they describe
  /// none.
  std::function<std::optional<Solution>(const std::vector<std::uint8_t>& bits)>
      decode;
};

/// Encodes a workload on demand: the problem, or the encoder's error.
template <typename Solution>
using ProblemEncoder = std::function<StatusOr<EncodedProblem<Solution>>()>;

/// MQO as a QUBO (Sec. 5.1); decodes with DecodeBits and prices with
/// SelectionCost. `problem` must outlive the result.
StatusOr<EncodedProblem<MqoSolution>> EncodeMqoProblem(
    const MqoProblem& problem);

/// Join order as a BILP (Sec. 6.1.2/6.1.3), then as a QUBO (Sec. 6.1.4);
/// decodes with DecodeJoinOrder and prices with CoutCost. `graph` must
/// outlive the result.
StatusOr<EncodedProblem<JoinOrderSolution>> EncodeJoinOrderProblem(
    const QueryGraph& graph, const JoinOrderEncoderOptions& encoder_options);

/// The solve body of both kinds. Under the kind's trace span
/// ("solve.mqo" / "solve.join") it checks the deadline, then encodes
/// (`encode`), dispatches the QUBO, decodes the bits and reports.
/// Recoverable failures (invalid problem/options, backend budget exceeded
/// with fallback disabled) come back as a Status instead of aborting.
template <typename Solution>
StatusOr<SolveReport<Solution>> TrySolveEncoded(
    const ProblemEncoder<Solution>& encode, const OptimizerOptions& options);

/// Encodes `problem` (EncodeMqoProblem) and solves it (TrySolveEncoded).
StatusOr<MqoSolveReport> TrySolveMqo(const MqoProblem& problem,
                                     const OptimizerOptions& options = {});

/// Encodes `graph` (EncodeJoinOrderProblem) and solves it
/// (TrySolveEncoded).
StatusOr<JoinOrderSolveReport> TrySolveJoinOrder(
    const QueryGraph& graph, const JoinOrderEncoderOptions& encoder_options,
    const OptimizerOptions& options = {});

}  // namespace qopt
