#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "qubo/qubo_canonical.h"

namespace qopt::serve {
namespace {

/// Pending cancels for request ids the server has not seen yet. Bounded so
/// a client spamming cancels for fictional ids cannot grow server memory.
constexpr std::size_t kMaxPendingCancels = 1024;

/// Domain-separation tags for the cache options hash.
constexpr std::uint64_t kMqoKeyTag = 0x5E57'E001ULL;
constexpr std::uint64_t kJoinKeyTag = 0x5E57'E002ULL;

/// Everything that changes the *answer* of a solve enters the cache key;
/// timeout_ms deliberately does not (a completed result is equally valid
/// under any budget — budget-truncated results are never inserted).
std::uint64_t OptionsHash(std::uint64_t kind_tag, const ServeRequest& r) {
  std::uint64_t h = HashCombine(kind_tag, static_cast<std::uint64_t>(r.backend));
  h = HashCombine(h, static_cast<std::uint64_t>(r.dispatch));
  h = HashCombine(h, r.seed);
  h = HashCombine(h, static_cast<std::uint64_t>(r.retries));
  h = HashCombine(h, static_cast<std::uint64_t>(r.pegasus_m));
  h = HashCombine(h, static_cast<std::uint64_t>(r.decompose));
  return HashCombine(h, r.classical_fallback ? 1 : 0);
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options), cache_(options.cache_capacity) {}

void Server::RequestShutdown() {
  shutdown_token_.Cancel();
  // Shutdown implies drain starts now for anything still blocked on the
  // per-request tokens once the accept loop unwinds; firing the drain
  // token here would skip the graceful window, so only the shutdown flag
  // is set.
}

ServerCounters Server::Counters() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return counters_;
}

Status Server::Serve(std::istream& in, std::ostream& out) {
  // Per-session reset: sequence numbers, reorder buffer and cancellation
  // bookkeeping start fresh; the cache and lifetime counters persist.
  {
    std::lock_guard<std::mutex> lock(emit_mutex_);
    out_ = &out;
    next_emit_ = 0;
    pending_.clear();
  }
  next_seq_ = 0;
  drain_token_.Reset();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    live_.clear();
    precancelled_.clear();
  }

  std::string line;
  // QQO_LOOP(serve.accept)
  while (std::getline(in, line)) {
    QQO_COUNT("serve.lines", 1);
    if (shutdown_token_.cancelled()) break;
    HandleLine(line);
  }
  Drain();
  {
    std::lock_guard<std::mutex> lock(emit_mutex_);
    out_ = nullptr;
  }
  return OkStatus();
}

void Server::HandleLine(const std::string& line) {
  if (line.empty()) return;  // Blank lines are keep-alive noise: no reply.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.lines;
  }
  const std::uint64_t seq = next_seq_++;
  if (line.size() > options_.max_line_bytes) {
    // Reject before parsing: the bound exists precisely so that a huge
    // line costs O(max_line_bytes), not O(line).
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.parse_errors;
    Emit(seq, MakeErrorResponse(
                  "", ResourceExhaustedError(StrFormat(
                          "request line of %zu bytes exceeds the "
                          "max_line_bytes limit of %zu",
                          line.size(), options_.max_line_bytes))));
    return;
  }
  StatusOr<ServeRequest> parsed =
      ParseServeRequest(line, options_.default_dispatch);
  if (!parsed.ok()) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.parse_errors;
    Emit(seq, MakeErrorResponse(BestEffortRequestId(line), parsed.status()));
    return;
  }
  ServeRequest request = *std::move(parsed);
  switch (request.type) {
    case RequestType::kPing: {
      JsonValue result = JsonValue::Object();
      result.Set("pong", JsonValue::Bool(true));
      Emit(seq, MakeOkResponse(request.id, false, result));
      return;
    }
    case RequestType::kStats:
      HandleStats(seq, request);
      return;
    case RequestType::kCancel:
      HandleCancel(seq, request);
      return;
    case RequestType::kMqo:
    case RequestType::kJoin:
      AdmitSolve(seq, std::move(request));
      return;
  }
}

void Server::HandleCancel(std::uint64_t seq, const ServeRequest& request) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = live_.find(request.cancel_target);
  if (it != live_.end()) {
    it->second->token.Cancel();
  } else {
    if (precancelled_.size() >= kMaxPendingCancels &&
        precancelled_.count(request.cancel_target) == 0) {
      Emit(seq, MakeErrorResponse(
                    request.id,
                    ResourceExhaustedError(
                        "too many pending cancels for unseen request ids")));
      return;
    }
    // The target has not been admitted yet: remember the cancel and fire
    // the request's token the moment it arrives. This "pre-cancel" is the
    // deterministic flavor the replay corpus uses — it does not race
    // against solver progress.
    precancelled_.insert(request.cancel_target);
  }
  // Uniform acknowledgement: whether the target was live or pre-cancelled
  // is timing-dependent, so the ack deliberately does not say.
  JsonValue result = JsonValue::Object();
  result.Set("cancelled", JsonValue::Bool(true));
  result.Set("target", JsonValue::String(request.cancel_target));
  Emit(seq, MakeOkResponse(request.id, false, result));
}

void Server::HandleStats(std::uint64_t seq, const ServeRequest& request) {
  // Barrier: a stats snapshot taken while solves are in flight would
  // depend on scheduling. Waiting for idle makes the payload a pure
  // function of the request history, which the replay harness compares
  // byte-for-byte across thread counts.
  AwaitIdle();
  JsonValue result = JsonValue::Object();
  const JsonValue metrics = obs::Metrics::Instance().ToJson(false);
  if (const JsonValue* rows = metrics.Find("metrics"); rows != nullptr) {
    result.Set("metrics", *rows);
  }
  const CacheCounters cache_counters = cache_.Counters();
  JsonValue cache = JsonValue::Object();
  cache.Set("capacity",
            JsonValue::Number(static_cast<double>(cache_.Capacity())));
  cache.Set("size", JsonValue::Number(static_cast<double>(cache_.Size())));
  cache.Set("hits_exact",
            JsonValue::Number(static_cast<double>(cache_counters.hits_exact)));
  cache.Set("hits_isomorphic",
            JsonValue::Number(
                static_cast<double>(cache_counters.hits_isomorphic)));
  cache.Set("misses",
            JsonValue::Number(static_cast<double>(cache_counters.misses)));
  cache.Set("insertions",
            JsonValue::Number(static_cast<double>(cache_counters.insertions)));
  cache.Set("evictions",
            JsonValue::Number(static_cast<double>(cache_counters.evictions)));
  cache.Set("rejections",
            JsonValue::Number(static_cast<double>(cache_counters.rejections)));
  result.Set("cache", cache);
  ServerCounters counters = Counters();
  JsonValue server = JsonValue::Object();
  server.Set("admitted",
             JsonValue::Number(static_cast<double>(counters.admitted)));
  server.Set("completed",
             JsonValue::Number(static_cast<double>(counters.completed)));
  server.Set("shed", JsonValue::Number(static_cast<double>(counters.shed)));
  server.Set("parse_errors",
             JsonValue::Number(static_cast<double>(counters.parse_errors)));
  server.Set("cancelled",
             JsonValue::Number(static_cast<double>(counters.cancelled)));
  server.Set("queue_capacity",
             JsonValue::Number(static_cast<double>(options_.queue_capacity)));
  result.Set("server", server);
  Emit(seq, MakeOkResponse(request.id, false, result));
}

void Server::AdmitSolve(std::uint64_t seq, ServeRequest request) {
  // Deterministic admission fault site: CI arms it via QQO_FAULTS to
  // prove a shed request gets a structured reject while the loop lives.
  if (Status fault = CheckFaultPoint("serve.admit"); !fault.ok()) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.shed;
    QQO_COUNT("serve.shed", 1);
    Emit(seq, MakeErrorResponse(request.id, fault));
    return;
  }
  auto state = std::make_shared<RequestState>(&drain_token_);
  state->seq = seq;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (in_flight_ >= options_.queue_capacity) {
      ++counters_.shed;
      QQO_COUNT("serve.shed", 1);
      Emit(seq,
           MakeErrorResponse(
               request.id,
               UnavailableError(StrFormat(
                   "admission queue full (%zu solves in flight, capacity "
                   "%zu); retry after a response drains",
                   in_flight_, options_.queue_capacity))));
      return;
    }
    ++in_flight_;
    ++counters_.admitted;
    QQO_COUNT("serve.requests", 1);
    if (precancelled_.erase(request.id) > 0) state->token.Cancel();
    if (request.use_cache && cache_.Capacity() > 0) {
      state->ticket = next_ticket_++;
    }
    state->request = std::move(request);
    live_[state->request.id] = state;
  }
  ThreadPool::Default().Submit([this, state] {
    std::string response;
    try {
      response = SolveToResponse(*state);
    } catch (const std::exception& e) {
      // Worker isolation: a throwing solve is a bug, but it must cost one
      // error response, not the daemon.
      response = MakeErrorResponse(
          state->request.id,
          InternalError(StrFormat("solve threw: %s", e.what())));
    } catch (...) {
      response = MakeErrorResponse(
          state->request.id,
          InternalError("solve threw a non-exception object"));
    }
    AbandonTicket(*state);
    Emit(state->seq, std::move(response));
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      --in_flight_;
      ++counters_.completed;
      auto it = live_.find(state->request.id);
      if (it != live_.end() && it->second == state) live_.erase(it);
      // Notify under the lock: once it is released, Serve() may return
      // and ~Server destroy idle_cv_.
      idle_cv_.notify_all();
    }
  });
}

std::string Server::SolveToResponse(RequestState& state) {
  const ServeRequest& request = state.request;
  const Deadline deadline = SolveDeadline(request, &state.token);
  if (options_.test_request_hook) options_.test_request_hook(deadline);
  // Per-request fault site: an injected failure surfaces as this
  // request's error response and nothing else.
  if (Status fault = CheckFaultPoint("serve.request"); !fault.ok()) {
    return MakeErrorResponse(request.id, fault);
  }
  const OptimizerOptions options = MakeOptimizerOptions(request, deadline);
  if (request.type == RequestType::kMqo) {
    return SolveProblem<MqoSolution>(
        state, options, [&] { return EncodeMqoProblem(*request.mqo); });
  }
  return SolveProblem<JoinOrderSolution>(state, options, [&] {
    return EncodeJoinOrderProblem(*request.join_graph, request.join_encoder);
  });
}

template <typename Solution>
std::string Server::SolveProblem(RequestState& state,
                                 const OptimizerOptions& options,
                                 const ProblemEncoder<Solution>& encode) {
  const ServeRequest& request = state.request;
  const bool use_cache = request.use_cache && cache_.Capacity() > 0;
  QuboSignature signature;
  CacheKey key{0, 0};
  bool holds_flight = false;
  std::optional<EncodedProblem<Solution>> problem;
  if (use_cache) {
    // The encoding is cheap relative to a solve; computing it up front
    // lets a cache hit skip the solver entirely.
    StatusOr<EncodedProblem<Solution>> encoded = encode();
    if (!encoded.ok()) return MakeErrorResponse(request.id, encoded.status());
    problem = *std::move(encoded);
    signature = ComputeQuboSignature(problem->qubo);
    key = {signature.canonical_hash,
           OptionsHash(std::is_same_v<Solution, MqoSolution> ? kMqoKeyTag
                                                             : kJoinKeyTag,
                       request)};
    holds_flight = AcquireFlight(key, state);
    if (std::optional<JsonValue> payload =
            CachedPayload(key, signature, *problem)) {
      if (holds_flight) ReleaseFlight(key);
      return MakeOkResponse(request.id, true, *payload);
    }
    QQO_COUNT("serve.cache.miss", 1);
  }
  // A miss solves the encoding it already holds.
  const ProblemEncoder<Solution> held = [&problem] {
    return *std::move(problem);
  };
  StatusOr<SolveReport<Solution>> report =
      TrySolveEncoded(problem ? held : encode, options);
  std::string response;
  if (!report.ok()) {
    if (report.status().code() == StatusCode::kCancelled) {
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++counters_.cancelled;
    }
    response = MakeErrorResponse(request.id, report.status());
  } else {
    const JsonValue payload = ReportToJson(*report);
    if (use_cache && report->valid && !report->stats.timed_out) {
      CacheEntry entry;
      entry.exact_hash = signature.exact_hash;
      entry.canonical_bits = MapBitsToCanonical(signature, report->bits);
      entry.energy = report->qubo_energy;
      entry.payload = payload.Dump();
      cache_.Insert(key.first, key.second, std::move(entry));
    }
    response = MakeOkResponse(request.id, false, payload);
  }
  if (holds_flight) ReleaseFlight(key);
  return response;
}

template <typename Solution>
std::optional<JsonValue> Server::CachedPayload(
    const CacheKey& key, const QuboSignature& signature,
    const EncodedProblem<Solution>& problem) {
  CacheEntry entry;
  const CacheHitKind kind =
      cache_.Lookup(key.first, key.second, signature.exact_hash, &entry);
  if (kind == CacheHitKind::kMiss) return std::nullopt;
  std::optional<Solution> solution;
  double energy = 0.0;
  if (kind == CacheHitKind::kIsomorphic) {
    // Same canonical form under a different labeling: transport the
    // cached bits through this instance's canonical ranks, then verify.
    if (std::optional<std::vector<std::uint8_t>> bits =
            TransportCanonicalBits(entry, signature, problem.qubo, &energy)) {
      solution = problem.decode(*bits);
    }
    if (!solution) {
      cache_.RecordRejection(key.first, key.second);
      return std::nullopt;
    }
  }
  QQO_COUNT("serve.cache.hit", 1);
  StatusOr<JsonValue> payload = JsonValue::ParseOrStatus(entry.payload);
  QOPT_CHECK_MSG(payload.ok(), "cached payload failed to re-parse");
  if (solution) {
    payload->Set("energy", JsonValue::Number(energy));
    SetSolutionFields(*solution, &*payload);
  }
  return *std::move(payload);
}

bool Server::AcquireFlight(const CacheKey& key, RequestState& state) {
  std::unique_lock<std::mutex> lock(flights_mutex_);
  const std::uint64_t ticket = std::exchange(state.ticket, kNoTicket);
  // Join the key's queue in admission order, not in worker arrival order:
  // that order decides which duplicate solves and which hits the cache.
  // QQO_LOOP(serve.flight_turn)
  while (flight_turn_ != ticket) {
    QQO_COUNT("serve.wall.flight_waits", 1);
    if (state.token.cancelled()) {
      PassTurnLocked(ticket);
      return false;
    }
    flights_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
  std::deque<std::uint64_t>& queue = flights_[key];
  queue.push_back(ticket);
  PassTurnLocked(ticket);
  flights_cv_.notify_all();
  // QQO_LOOP(serve.flight)
  while (queue.front() != ticket) {
    QQO_COUNT("serve.wall.flight_waits", 1);
    if (state.token.cancelled()) {
      queue.erase(std::find(queue.begin(), queue.end(), ticket));
      return false;
    }
    flights_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
  return true;
}

void Server::ReleaseFlight(const CacheKey& key) {
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    auto it = flights_.find(key);
    it->second.pop_front();
    if (it->second.empty()) flights_.erase(it);
  }
  flights_cv_.notify_all();
}

void Server::AbandonTicket(RequestState& state) {
  if (state.ticket == kNoTicket) return;
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    PassTurnLocked(std::exchange(state.ticket, kNoTicket));
  }
  flights_cv_.notify_all();
}

void Server::PassTurnLocked(std::uint64_t ticket) {
  if (ticket != flight_turn_) {
    abandoned_tickets_.insert(ticket);
    return;
  }
  do {
    ++flight_turn_;
  } while (abandoned_tickets_.erase(flight_turn_) > 0);
}

void Server::Emit(std::uint64_t seq, std::string line) {
  std::lock_guard<std::mutex> lock(emit_mutex_);
  pending_[seq] = std::move(line);
  // Reorder buffer: write the contiguous run starting at next_emit_, hold
  // anything that arrived ahead of an earlier outstanding response.
  bool wrote = false;
  auto it = pending_.find(next_emit_);
  while (it != pending_.end()) {
    QQO_COUNT("serve.responses", 1);
    if (out_ != nullptr) *out_ << it->second << '\n';
    pending_.erase(it);
    ++next_emit_;
    wrote = true;
    it = pending_.find(next_emit_);
  }
  if (wrote && out_ != nullptr) out_->flush();
}

void Server::AwaitIdle() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  // QQO_LOOP(serve.wait)
  while (in_flight_ > 0) {
    QQO_COUNT("serve.wall.idle_waits", 1);
    if (shutdown_token_.cancelled() && drain_token_.cancelled()) break;
    idle_cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
}

void Server::Drain() {
  const Deadline drain_deadline =
      options_.drain_budget_ms < 0
          ? Deadline::Infinite()
          : Deadline::AfterMillis(
                static_cast<double>(options_.drain_budget_ms));
  std::unique_lock<std::mutex> lock(state_mutex_);
  // QQO_LOOP(serve.drain)
  while (in_flight_ > 0) {
    QQO_COUNT("serve.wall.drain_waits", 1);
    if (drain_deadline.Expired() && !drain_token_.cancelled()) {
      // Budget exhausted: cancel everything still in flight through the
      // linked tokens; solvers observe it at their next iteration
      // boundary and wind down with kCancelled error responses.
      drain_token_.Cancel();
    }
    idle_cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
}

}  // namespace qopt::serve
