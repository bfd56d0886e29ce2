#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "common/json.h"
#include "common/status.h"
#include "core/quantum_optimizer.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "mqo/mqo_problem.h"

namespace qopt::serve {

/// Line-delimited JSON protocol of qqo_serve (DESIGN.md "Serving"). Every
/// input line is one request object; every request produces exactly one
/// response line, emitted in request order. Requests carrying untrusted
/// content (all of them) are validated field by field — a malformed
/// request yields a structured error response, never a crash and never a
/// torn response stream.
///
/// Request:
///   {"id": "r1", "type": "mqo",  "workload": {...}, "backend": "sa",
///    "dispatch": "serial", "decompose": 0, "seed": 7, "timeout_ms": 500,
///    "retries": 2, "no_fallback": false, "pegasus": 4, "cache": true}
///   {"id": "r2", "type": "join", "workload": {...},
///    "thresholds": [10, 100], "precision": 0, ...}
///   {"id": "r3", "type": "stats"}
///   {"id": "r4", "type": "cancel", "target": "r9"}
///   {"id": "r5", "type": "ping"}
///
/// Response:
///   {"id": "r1", "ok": true, "cached": false, "result": {...}}
///   {"id": "r9", "ok": false,
///    "error": {"code": "UNAVAILABLE", "message": "..."}}
enum class RequestType { kMqo, kJoin, kStats, kCancel, kPing };

/// Largest seed either front end accepts: every integer up to 2^53 is
/// exact as a JSON number, so any seed qqo takes replays on qqo_serve.
inline constexpr long long kMaxSeed = 1LL << 53;

/// The options of one solve: the one contract behind the `qqo mqo|join`
/// flags and the qqo_serve solve-request fields. Both front ends fill it
/// through SetSolveInt / SetSolveName and solve it with
/// MakeOptimizerOptions, so a request means the same on either.
struct SolveRequest {
  Backend backend = Backend::kSimulatedAnnealing;
  DispatchMode dispatch = DispatchMode::kSerial;
  /// 0 disables decomposition; N >= 2 decomposes problems larger than N
  /// variables (OptimizerOptions::decompose).
  int decompose = 0;
  std::uint64_t seed = 7;
  /// Negative: unbounded. Zero is a legal instantly-exhausted budget.
  long long timeout_ms = -1;
  int retries = 1;
  int pegasus_m = 4;
  bool classical_fallback = true;
  /// Join solves only: thresholds / precision.
  JoinOrderEncoderOptions join_encoder = {.thresholds = {10.0, 100.0},
                                          .safe_slack_bounds = true};
};

/// Option names of every solve request; join requests also take
/// kJoinOptions. qqo spells each one as a flag with '_' -> '-'
/// (--timeout-ms); no_fallback is a bare switch there.
inline constexpr std::array<const char*, 8> kSolveOptions = {
    "backend", "dispatch", "decompose",  "seed",
    "pegasus", "no_fallback", "timeout_ms", "retries"};
inline constexpr std::array<const char*, 2> kJoinOptions = {"thresholds",
                                                            "precision"};

/// The one validator of a solve's options. Each front end first turns
/// its own syntax into a value (flag text -> integer for qqo, JSON ->
/// integer for qqo_serve), then stores it through these calls, which own
/// every range and rule. `name` is the protocol name; `label` is how the
/// front end's user wrote the option (`flag --timeout-ms`,
/// `field "timeout_ms"`) and starts every diagnostic.
///
/// Integers: seed [0, kMaxSeed], timeout_ms [0, one day], retries
/// [1, 100], decompose 0 or [2, 10^6], pegasus [2, 16], precision
/// [0, 16]. Outside its range is kOutOfRange; decompose 1 is
/// kInvalidArgument.
Status SetSolveInt(std::string_view name, long long value,
                   const std::string& label, SolveRequest* request);

/// Names: backend (ParseBackend) and dispatch (ParseDispatchMode). An
/// unknown name is kInvalidArgument.
Status SetSolveName(std::string_view name, const std::string& text,
                    const std::string& label, SolveRequest* request);

/// The solve's deadline: timeout_ms from now (unbounded when negative),
/// cancelled early through `token` when one is given.
Deadline SolveDeadline(const SolveRequest& request,
                       const CancelToken* token = nullptr);

/// The only OptimizerOptions builder of the front ends: the request's
/// options plus the fixed caller budgets (SA 50 reads x 2000 sweeps,
/// QAOA/VQE 250 iterations x 4096 shots, embedded annealing 100 x 4000).
OptimizerOptions MakeOptimizerOptions(const SolveRequest& request,
                                      const Deadline& deadline);

/// Checks the environment knobs both binaries read (QQO_THREADS,
/// QQO_FAULTS) before any work runs. An error names its variable.
Status CheckSolveEnvironment();

/// A validated solve/admin request.
struct ServeRequest : SolveRequest {
  std::string id;
  RequestType type = RequestType::kPing;

  // Solve requests (kMqo / kJoin).
  std::optional<MqoProblem> mqo;
  std::optional<QueryGraph> join_graph;
  bool use_cache = true;

  // kCancel.
  std::string cancel_target;
};

/// Upper bound on request ids; longer ids are rejected (they would bloat
/// every response and the in-flight registry).
inline constexpr std::size_t kMaxRequestIdBytes = 256;

/// Parses and validates one request line (already length-checked by the
/// server). `default_dispatch` supplies the daemon-wide dispatch mode
/// (--dispatch) that a request may override per call.
StatusOr<ServeRequest> ParseServeRequest(const std::string& line,
                                         DispatchMode default_dispatch);

/// Builds the compact single-line success response. `result` is the
/// request-type-specific payload object.
std::string MakeOkResponse(const std::string& id, bool cached,
                           const JsonValue& result);

/// Builds the compact single-line error response. The code string is the
/// upper-snake StatusCodeName ("UNAVAILABLE", "INVALID_ARGUMENT", ...).
/// `id` may be empty when the request never parsed far enough to have one
/// (serialized as null).
std::string MakeErrorResponse(const std::string& id, const Status& status);

/// Best-effort id recovery for error responses: when a request fails
/// validation after its "id" field already parsed (wrong workload shape,
/// bad field type, ...), the error response should still name the
/// request. Empty when the line is not an object with a legal string id.
std::string BestEffortRequestId(const std::string& line);

/// Result payload of a solved request of either kind. Deterministic:
/// holds no wall-clock fields, so response streams are byte-identical
/// across QQO_THREADS (see the replay harness).
template <typename Solution>
JsonValue ReportToJson(const SolveReport<Solution>& report);

/// Sets a payload's `cost` and its plan: "selection" (MQO) or "order"
/// (join order).
template <typename Solution>
void SetSolutionFields(const Solution& solution, JsonValue* result);

}  // namespace qopt::serve
