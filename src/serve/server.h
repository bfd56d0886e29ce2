#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <condition_variable>

#include "common/deadline.h"
#include "common/status.h"
#include "serve/protocol.h"
#include "serve/solution_cache.h"

namespace qopt::serve {

/// Tuning knobs of one Server instance. Defaults are sized for the demo
/// daemon; the qqo_serve front-end maps its flags onto them.
struct ServerOptions {
  /// Admission bound: solve requests in flight (admitted, response not
  /// yet emitted). One more solve than this is shed with kUnavailable —
  /// deterministic, explicit overload behavior instead of an unbounded
  /// queue. 0 sheds every solve (useful to pin the shed path in tests).
  std::size_t queue_capacity = 64;
  /// Solution-cache entries (see SolutionCache). 0 disables caching.
  std::size_t cache_capacity = 128;
  /// Graceful-drain budget: after EOF / shutdown the server first lets
  /// in-flight solves finish; once this budget expires it fires the drain
  /// CancelToken (linked into every request deadline) and waits for the
  /// solvers to wind down cooperatively. Negative: wait forever.
  long long drain_budget_ms = 2000;
  /// Request lines longer than this are rejected (kResourceExhausted)
  /// without being parsed — bounded memory per request.
  std::size_t max_line_bytes = 1 << 20;
  /// Daemon-wide dispatch default (--dispatch); a request
  /// may override it per call with its "dispatch" field.
  DispatchMode default_dispatch = DispatchMode::kSerial;
  /// Test seam: when set, runs on the worker thread for every admitted
  /// solve, before dispatch, with the request's deadline (which carries
  /// the per-request CancelToken linked to the drain token). The drain
  /// tests block in here until cancellation fires, pinning the
  /// cancel-on-drain path without timing races.
  std::function<void(const Deadline&)> test_request_hook;
};

/// Monotonic request accounting across the server's lifetime (all Serve
/// calls), for the stats payload and the front-end's shutdown summary.
struct ServerCounters {
  long long lines = 0;         ///< Non-blank input lines read.
  long long admitted = 0;      ///< Solve requests admitted to the pool.
  long long completed = 0;     ///< Solve responses emitted (ok or error).
  long long shed = 0;          ///< Solves rejected at admission.
  long long parse_errors = 0;  ///< Lines that failed validation.
  long long cancelled = 0;     ///< Solves that finished kCancelled.
};

/// The qqo_serve request loop: reads line-delimited JSON requests from a
/// stream, runs admitted solves on the default ThreadPool (each under its
/// own deadline + CancelToken), and writes exactly one response line per
/// request, in request order. See protocol.h for the wire format and
/// DESIGN.md "Serving" for the admission / shedding / drain contract.
///
/// Robustness invariants:
///   - A malformed or fault-injected request produces a structured error
///     response; the loop keeps serving (worker exceptions included).
///   - At most queue_capacity solves are in flight; excess is shed with a
///     deterministic kUnavailable error.
///   - EOF / RequestShutdown() triggers a graceful drain: stop admitting,
///     let in-flight work finish within drain_budget_ms, then cancel the
///     rest through the linked drain token. Serve() returns OK after a
///     drain even when individual requests were cancelled.
///
/// Determinism: responses are emitted strictly in request order through a
/// sequence-numbered reorder buffer, "stats" waits for all prior solves
/// (a barrier), and concurrent duplicates of one cache key are coalesced
/// (single flight) in admission order — so a corpus of serial-dispatch
/// requests produces a byte-identical response stream at any QQO_THREADS
/// setting.
class Server {
 public:
  explicit Server(const ServerOptions& options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the request loop until `in` is exhausted or shutdown was
  /// requested, then drains. May be called again afterwards (per-session
  /// state resets; the cache and counters persist) — the socket front-end
  /// serves one connection per call.
  Status Serve(std::istream& in, std::ostream& out);

  /// Asynchronous shutdown signal (SIGTERM handler / another thread):
  /// atomically stops admission at the next loop boundary. Safe to call
  /// from a signal handler (two relaxed atomic stores). Note the accept
  /// loop only observes it between lines — the qqo_serve front-end pairs
  /// this with an EINTR-aware stream so blocked reads wake up.
  void RequestShutdown();
  bool ShutdownRequested() const { return shutdown_token_.cancelled(); }

  ServerCounters Counters() const;
  const SolutionCache& Cache() const { return cache_; }

 private:
  static constexpr std::uint64_t kNoTicket = ~std::uint64_t{0};
  struct RequestState {
    explicit RequestState(const CancelToken* drain_token)
        : token(drain_token) {}
    std::uint64_t seq = 0;
    /// Admission-order place of a cacheable solve in the flight queues;
    /// kNoTicket once used or given up (and for uncached solves).
    std::uint64_t ticket = kNoTicket;
    ServeRequest request;
    CancelToken token;  ///< Linked to drain_token_: drain cancels all.
  };
  using CacheKey = std::pair<std::uint64_t, std::uint64_t>;

  /// Accept-thread handling of one raw input line.
  void HandleLine(const std::string& line);
  void HandleCancel(std::uint64_t seq, const ServeRequest& request);
  void HandleStats(std::uint64_t seq, const ServeRequest& request);
  void AdmitSolve(std::uint64_t seq, ServeRequest request);

  /// Worker-side solve (exception-isolated by the Submit wrapper).
  std::string SolveToResponse(RequestState& state);
  /// The one solve path of both problem kinds. A cached solve encodes the
  /// workload first (`encode`), answers a verified cache hit from the
  /// cache, and solves that same encoding on a miss; an uncached solve
  /// leaves the encoding to the facade.
  template <typename Solution>
  std::string SolveProblem(RequestState& state,
                           const OptimizerOptions& options,
                           const ProblemEncoder<Solution>& encode);
  /// The payload of a cache hit for `problem`, or nullopt on a miss. An
  /// isomorphic hit is transported and verified (TransportCanonicalBits,
  /// then decode); one that fails is rejected and is a miss.
  template <typename Solution>
  std::optional<JsonValue> CachedPayload(
      const CacheKey& key, const QuboSignature& signature,
      const EncodedProblem<Solution>& problem);

  /// Single-flight coalescing in admission order: requests join a key's
  /// queue in ticket order, whichever worker reaches it first, and hold
  /// the flight from the queue's front. True when the caller now owns the
  /// key and must ReleaseFlight; false when it gave up waiting
  /// (cancelled). Uses up state.ticket either way.
  bool AcquireFlight(const CacheKey& key, RequestState& state);
  void ReleaseFlight(const CacheKey& key);
  /// Gives up a ticket that never reached AcquireFlight (the solve failed
  /// or threw first), so later tickets do not wait for it.
  void AbandonTicket(RequestState& state);
  /// Lets the next live ticket take its turn once `ticket` is done with
  /// it; a ticket given up before its turn is skipped when reached.
  void PassTurnLocked(std::uint64_t ticket);

  /// In-order emission: responses buffer until every earlier sequence
  /// number has been written.
  void Emit(std::uint64_t seq, std::string line);

  /// Waits until no solve is in flight (stats barrier / drain).
  void AwaitIdle();
  void Drain();

  const ServerOptions options_;
  SolutionCache cache_;

  CancelToken shutdown_token_;  ///< RequestShutdown() fires this.
  CancelToken drain_token_;     ///< Fired when the drain budget expires.

  // Accept-thread-only session state (no lock needed).
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_ticket_ = 0;

  mutable std::mutex state_mutex_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  ServerCounters counters_;
  std::map<std::string, std::shared_ptr<RequestState>> live_;
  std::set<std::string> precancelled_;

  std::mutex flights_mutex_;
  std::condition_variable flights_cv_;
  std::uint64_t flight_turn_ = 0;  ///< Next ticket to join a queue.
  std::set<std::uint64_t> abandoned_tickets_;
  /// Per key: the flight holder at the front, then waiters by ticket.
  std::map<CacheKey, std::deque<std::uint64_t>> flights_;

  std::mutex emit_mutex_;
  std::ostream* out_ = nullptr;
  std::uint64_t next_emit_ = 0;
  std::map<std::uint64_t, std::string> pending_;
};

}  // namespace qopt::serve
