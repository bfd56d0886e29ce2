#include "serve/protocol.h"

#include <cmath>
#include <set>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "io/workload_io.h"

namespace qopt::serve {
namespace {

/// One integer solve option: its legal range and where it lands.
struct IntOption {
  std::string_view name;
  long long min;
  long long max;
  void (*store)(long long value, SolveRequest* request);
};

constexpr IntOption kIntOptions[] = {
    {"seed", 0, kMaxSeed,
     [](long long v, SolveRequest* r) {
       r->seed = static_cast<std::uint64_t>(v);
     }},
    {"timeout_ms", 0, 24LL * 60 * 60 * 1000,
     [](long long v, SolveRequest* r) { r->timeout_ms = v; }},
    {"retries", 1, 100,
     [](long long v, SolveRequest* r) { r->retries = static_cast<int>(v); }},
    {"decompose", 0, 1000000,
     [](long long v, SolveRequest* r) {
       r->decompose = static_cast<int>(v);
     }},
    {"pegasus", 2, 16,
     [](long long v, SolveRequest* r) {
       r->pegasus_m = static_cast<int>(v);
     }},
    {"precision", 0, 16,
     [](long long v, SolveRequest* r) {
       r->join_encoder.precision_decimals = static_cast<int>(v);
     }},
};

const IntOption& FindIntOption(std::string_view name) {
  for (const IntOption& option : kIntOptions) {
    if (option.name == name) return option;
  }
  QOPT_CHECK_MSG(false, "no integer solve option of this name");
  return kIntOptions[0];
}

Status RangeError(const IntOption& option, const std::string& label) {
  return OutOfRangeError(
      StrFormat("%s: expected an integer in [%lld, %lld]", label.c_str(),
                option.min, option.max));
}

std::string FieldLabel(std::string_view name) {
  return StrFormat("field \"%s\"", std::string(name).c_str());
}

/// JSON -> integer, then the shared range check. A fraction, or a
/// magnitude no option admits, gets the same diagnostic as any other
/// value outside the option's range.
Status IntField(const JsonValue& json, std::string_view name,
                SolveRequest* request) {
  const JsonValue* field = json.Find(std::string(name));
  if (field == nullptr) return OkStatus();
  QOPT_ASSIGN_OR_RETURN(const double value, field->GetNumber());
  if (value != std::floor(value) || std::abs(value) > 0x1p62) {
    return RangeError(FindIntOption(name), FieldLabel(name));
  }
  return SetSolveInt(name, static_cast<long long>(value), FieldLabel(name),
                     request);
}

StatusOr<bool> BoolField(const JsonValue& request, const char* name,
                         bool fallback) {
  const JsonValue* field = request.Find(name);
  if (field == nullptr) return fallback;
  if (StatusOr<bool> value = field->GetBool(); value.ok()) return *value;
  return InvalidArgumentError(
      StrFormat("field \"%s\": expected a boolean", name));
}

StatusOr<std::string> StringField(const JsonValue& request, const char* name) {
  const JsonValue* field = request.Find(name);
  if (field == nullptr) {
    return InvalidArgumentError(
        StrFormat("missing required field \"%s\"", name));
  }
  if (StatusOr<std::string> value = field->GetString(); value.ok()) {
    return *std::move(value);
  }
  return InvalidArgumentError(
      StrFormat("field \"%s\": expected a string", name));
}

/// Every request type accepts only its own fields: a typo like
/// "timout_ms" must be a hard error, not a silently applied default
/// (mirrors the CLI's per-subcommand flag allowlists).
Status CheckAllowedFields(const JsonValue& request,
                          const std::set<std::string>& allowed) {
  for (const auto& [key, value] : request.Members()) {
    (void)value;
    if (allowed.find(key) == allowed.end()) {
      std::string known;
      for (const std::string& name : allowed) {
        known += known.empty() ? "" : ", ";
        known += name;
      }
      return InvalidArgumentError(
          StrFormat("unknown field \"%s\" for this request type (known: %s)",
                    key.c_str(), known.c_str()));
    }
  }
  return OkStatus();
}

Status ParseSolveFields(const JsonValue& json, DispatchMode default_dispatch,
                        ServeRequest* request) {
  request->dispatch = default_dispatch;
  for (const char* name : {"dispatch", "backend"}) {
    if (const JsonValue* field = json.Find(name); field != nullptr) {
      QOPT_ASSIGN_OR_RETURN(const std::string text, field->GetString());
      QOPT_RETURN_IF_ERROR(
          SetSolveName(name, text, FieldLabel(name), request));
    }
  }
  for (const char* name :
       {"seed", "timeout_ms", "retries", "decompose", "pegasus"}) {
    QOPT_RETURN_IF_ERROR(IntField(json, name, request));
  }
  QOPT_ASSIGN_OR_RETURN(const bool no_fallback,
                        BoolField(json, "no_fallback", false));
  request->classical_fallback = !no_fallback;
  QOPT_ASSIGN_OR_RETURN(request->use_cache, BoolField(json, "cache", true));
  return OkStatus();
}

Status ParseJoinEncoderFields(const JsonValue& json, ServeRequest* request) {
  if (const JsonValue* thresholds = json.Find("thresholds");
      thresholds != nullptr) {
    if (!thresholds->IsArray() || thresholds->Size() == 0) {
      return InvalidArgumentError(
          "field \"thresholds\": expected a non-empty array of numbers");
    }
    request->join_encoder.thresholds.clear();
    request->join_encoder.thresholds.reserve(thresholds->Size());
    for (std::size_t i = 0; i < thresholds->Size(); ++i) {
      QOPT_ASSIGN_OR_RETURN(const double value,
                            thresholds->At(i).GetNumber());
      request->join_encoder.thresholds.push_back(value);
    }
  }
  return IntField(json, "precision", request);
}

const JsonValue* RequireWorkload(const JsonValue& json, Status* error) {
  const JsonValue* workload = json.Find("workload");
  if (workload == nullptr || !workload->IsObject()) {
    *error = InvalidArgumentError(
        "missing required field \"workload\" (object)");
    return nullptr;
  }
  return workload;
}

}  // namespace

Status SetSolveInt(std::string_view name, long long value,
                   const std::string& label, SolveRequest* request) {
  const IntOption& option = FindIntOption(name);
  if (value < option.min || value > option.max) {
    return RangeError(option, label);
  }
  if (name == "decompose" && value == 1) {
    return InvalidArgumentError(
        label + ": expected 0 (disabled) or a subproblem size >= 2");
  }
  option.store(value, request);
  return OkStatus();
}

Status SetSolveName(std::string_view name, const std::string& text,
                    const std::string& label, SolveRequest* request) {
  if (name == "backend") {
    StatusOr<Backend> backend = ParseBackend(text);
    if (backend.ok()) request->backend = *backend;
    return Annotate(backend.status(), label);
  }
  QOPT_CHECK_MSG(name == "dispatch", "no named solve option of this name");
  StatusOr<DispatchMode> dispatch = ParseDispatchMode(text);
  if (dispatch.ok()) request->dispatch = *dispatch;
  return Annotate(dispatch.status(), label);
}

Deadline SolveDeadline(const SolveRequest& request,
                       const CancelToken* token) {
  const Deadline base = request.timeout_ms < 0
                            ? Deadline::Infinite()
                            : Deadline::AfterMillis(
                                  static_cast<double>(request.timeout_ms));
  return base.WithToken(token);
}

OptimizerOptions MakeOptimizerOptions(const SolveRequest& request,
                                      const Deadline& deadline) {
  OptimizerOptions options;
  options.backend = request.backend;
  options.dispatch = request.dispatch;
  options.decompose = request.decompose;
  options.seed = request.seed;
  options.pegasus_m = request.pegasus_m;
  options.classical_fallback = request.classical_fallback;
  options.anneal.num_reads = 50;
  options.anneal.num_sweeps = 2000;
  options.variational.max_iterations = 250;
  options.variational.shots = 4096;
  options.embedded.anneal.num_reads = 100;
  options.embedded.anneal.num_sweeps = 4000;
  options.budget.deadline = deadline;
  options.budget.max_attempts = request.retries;
  return options;
}

Status CheckSolveEnvironment() {
  QOPT_RETURN_IF_ERROR(ThreadPool::PoolSizeFromEnvOrStatus().status());
  return FaultInjection::EnvSpecStatus();
}

StatusOr<ServeRequest> ParseServeRequest(const std::string& line,
                                         DispatchMode default_dispatch) {
  QOPT_ASSIGN_OR_RETURN(const JsonValue json,
                        JsonValue::ParseOrStatus(line));
  if (!json.IsObject()) {
    return InvalidArgumentError("request must be a JSON object");
  }
  ServeRequest request;
  QOPT_ASSIGN_OR_RETURN(request.id, StringField(json, "id"));
  if (request.id.empty() || request.id.size() > kMaxRequestIdBytes) {
    return InvalidArgumentError(StrFormat(
        "field \"id\": expected a non-empty string of at most %d bytes",
        static_cast<int>(kMaxRequestIdBytes)));
  }
  QOPT_ASSIGN_OR_RETURN(const std::string type, StringField(json, "type"));

  std::set<std::string> allowed = {"id", "type", "workload", "cache"};
  allowed.insert(kSolveOptions.begin(), kSolveOptions.end());
  if (type == "mqo") {
    request.type = RequestType::kMqo;
    QOPT_RETURN_IF_ERROR(CheckAllowedFields(json, allowed));
    QOPT_RETURN_IF_ERROR(
        ParseSolveFields(json, default_dispatch, &request));
    Status workload_error = OkStatus();
    const JsonValue* workload = RequireWorkload(json, &workload_error);
    if (workload == nullptr) return workload_error;
    QOPT_ASSIGN_OR_RETURN(request.mqo, MqoProblemFromJson(*workload));
    return request;
  }
  if (type == "join") {
    request.type = RequestType::kJoin;
    allowed.insert(kJoinOptions.begin(), kJoinOptions.end());
    QOPT_RETURN_IF_ERROR(CheckAllowedFields(json, allowed));
    QOPT_RETURN_IF_ERROR(
        ParseSolveFields(json, default_dispatch, &request));
    QOPT_RETURN_IF_ERROR(ParseJoinEncoderFields(json, &request));
    Status workload_error = OkStatus();
    const JsonValue* workload = RequireWorkload(json, &workload_error);
    if (workload == nullptr) return workload_error;
    QOPT_ASSIGN_OR_RETURN(request.join_graph, QueryGraphFromJson(*workload));
    return request;
  }
  if (type == "stats") {
    request.type = RequestType::kStats;
    QOPT_RETURN_IF_ERROR(CheckAllowedFields(json, {"id", "type"}));
    return request;
  }
  if (type == "cancel") {
    request.type = RequestType::kCancel;
    QOPT_RETURN_IF_ERROR(
        CheckAllowedFields(json, {"id", "type", "target"}));
    QOPT_ASSIGN_OR_RETURN(request.cancel_target, StringField(json, "target"));
    if (request.cancel_target.empty() ||
        request.cancel_target.size() > kMaxRequestIdBytes) {
      return InvalidArgumentError(
          "field \"target\": expected a non-empty request id");
    }
    return request;
  }
  if (type == "ping") {
    request.type = RequestType::kPing;
    QOPT_RETURN_IF_ERROR(CheckAllowedFields(json, {"id", "type"}));
    return request;
  }
  return InvalidArgumentError(StrFormat(
      "field \"type\": unknown request type \"%s\" (known: mqo, join, "
      "stats, cancel, ping)",
      type.c_str()));
}

std::string BestEffortRequestId(const std::string& line) {
  const std::optional<JsonValue> json = JsonValue::Parse(line);
  if (!json.has_value() || !json->IsObject()) return "";
  const JsonValue* id = json->Find("id");
  if (id == nullptr || !id->IsString()) return "";
  const std::string& text = id->AsString();
  if (text.empty() || text.size() > kMaxRequestIdBytes) return "";
  return text;
}

std::string MakeOkResponse(const std::string& id, bool cached,
                           const JsonValue& result) {
  JsonValue response = JsonValue::Object();
  response.Set("id", JsonValue::String(id));
  response.Set("ok", JsonValue::Bool(true));
  response.Set("cached", JsonValue::Bool(cached));
  response.Set("result", result);
  return response.Dump();
}

std::string MakeErrorResponse(const std::string& id, const Status& status) {
  JsonValue response = JsonValue::Object();
  response.Set("id", id.empty() ? JsonValue::Null() : JsonValue::String(id));
  response.Set("ok", JsonValue::Bool(false));
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(std::string(
                        StatusCodeName(status.code()))));
  error.Set("message", JsonValue::String(status.message()));
  response.Set("error", error);
  return response.Dump();
}

namespace {

/// How a payload names each problem kind and its plan.
struct PlanView {
  const char* kind;
  const char* field;
  const std::vector<int>& plan;
};

PlanView ViewOf(const MqoSolution& solution) {
  return {"mqo", "selection", solution.selection};
}

PlanView ViewOf(const JoinOrderSolution& solution) {
  return {"join", "order", solution.order};
}

}  // namespace

template <typename Solution>
void SetSolutionFields(const Solution& solution, JsonValue* result) {
  const PlanView view = ViewOf(solution);
  result->Set("cost", JsonValue::Number(solution.cost));
  JsonValue plan = JsonValue::Array();
  for (int item : view.plan) plan.Append(JsonValue::Number(item));
  result->Set(view.field, plan);
}

/// No wall-clock values (elapsed_ms and per-lane timings stay in the
/// metrics / stderr diagnostics).
template <typename Solution>
JsonValue ReportToJson(const SolveReport<Solution>& report) {
  JsonValue result = JsonValue::Object();
  result.Set("kind", JsonValue::String(ViewOf(report.solution).kind));
  result.Set("backend", JsonValue::String(BackendName(report.backend_used)));
  result.Set("degraded", JsonValue::Bool(report.degraded));
  if (report.degraded) {
    result.Set("degradation_reason",
               JsonValue::String(report.degradation_reason));
  }
  result.Set("qubits", JsonValue::Number(report.qubits));
  result.Set("quadratic_terms", JsonValue::Number(report.quadratic_terms));
  const SolveStats& stats = report.stats;
  result.Set("attempts", JsonValue::Number(stats.attempts));
  result.Set("timed_out", JsonValue::Bool(stats.timed_out));
  if (!stats.lanes.empty()) {
    result.Set("race_lanes",
               JsonValue::Number(static_cast<int>(stats.lanes.size())));
  }
  if (stats.decompose_rounds > 0) {
    result.Set("decompose_rounds", JsonValue::Number(stats.decompose_rounds));
    result.Set("decompose_subproblems",
               JsonValue::Number(stats.decompose_subproblems));
  }
  result.Set("valid", JsonValue::Bool(report.valid));
  result.Set("energy", JsonValue::Number(report.qubo_energy));
  if (report.valid) SetSolutionFields(report.solution, &result);
  return result;
}

template JsonValue ReportToJson(const MqoSolveReport&);
template JsonValue ReportToJson(const JoinOrderSolveReport&);
template void SetSolutionFields(const MqoSolution&, JsonValue*);
template void SetSolutionFields(const JoinOrderSolution&, JsonValue*);

}  // namespace qopt::serve
