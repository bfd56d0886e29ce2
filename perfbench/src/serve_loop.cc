#include "serve_loop.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <streambuf>
#include <thread>

#include "common/json.h"
#include "common/random.h"
#include "joinorder/join_order.h"
#include "mqo/mqo_qubo_encoder.h"
#include "util.h"

namespace perfbench {
namespace {

/// Request timeouts encode the line index (kTimeoutBase + index) so the
/// worker-side hook, which only sees the request's Deadline, can tell
/// which request it is running. One hour never expires in a run.
constexpr long long kTimeoutBase = 3600000;

/// Longest wait for a session to drain after its last request.
constexpr int kDrainLimitSeconds = 60;

/// Worker-start times keyed by line index, filled by the traced server's
/// test_request_hook.
struct WorkerStarts {
  std::mutex mutex;
  std::map<long long, double> at_ms;
};
WorkerStarts& Starts() {
  static WorkerStarts starts;
  return starts;
}

/// The open-loop sender, as the accept loop's input stream: line i becomes
/// readable at its due time (sleep to within a millisecond, then spin, so
/// hand-off jitter stays far below the latencies measured). A line due
/// while the accept loop is busy waits in the stream, as it would in a
/// socket buffer; latency is measured from the due time either way.
class ScheduledFeed : public std::streambuf {
 public:
  ScheduledFeed(std::vector<std::string> lines, std::vector<double> due_ms)
      : lines_(std::move(lines)), due_ms_(std::move(due_ms)) {}

  /// Hand-off time of each line read so far.
  const std::vector<double>& HandoffMs() const { return handoff_ms_; }
  /// How late each line was handed over when the reader was already
  /// waiting for it (the sender's own lateness).
  const std::vector<double>& LateMs() const { return late_ms_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ >= lines_.size()) return traits_type::eof();
    const double due = due_ms_[next_];
    const bool waiting = NowMs() < due;
    if (due - NowMs() > kSpinMs) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(due - NowMs() - kSpinMs));
    }
    while (NowMs() < due) {
    }
    const double now = NowMs();
    if (waiting) late_ms_.push_back(now - due);
    handoff_ms_.push_back(now);
    current_ = lines_[next_++] + "\n";
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  static constexpr double kSpinMs = 1.0;
  std::vector<std::string> lines_;
  std::vector<double> due_ms_;
  std::size_t next_ = 0;
  std::string current_;
  std::vector<double> handoff_ms_;
  std::vector<double> late_ms_;
};

/// Response sink: timestamps every completed response line.
class ResponseSink : public std::streambuf {
 public:
  struct Line {
    double at_ms;
    std::string text;
  };
  std::vector<Line> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }
  std::size_t Count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_.size();
  }

 protected:
  int_type overflow(int_type c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    std::lock_guard<std::mutex> lock(mutex_);
    if (c == '\n') {
      lines_.push_back(Line{NowMs(), std::move(partial_)});
      partial_.clear();
    } else {
      partial_ += static_cast<char>(c);
    }
    return c;
  }

 private:
  std::mutex mutex_;
  std::string partial_;
  std::vector<Line> lines_;
};

/// Due times (ms from the session start) of a seeded Poisson schedule.
std::vector<double> Schedule(const ServeWorkload& workload, std::uint64_t seed,
                             double seconds) {
  qopt::Rng rng(seed * 1000003ULL);
  const double duration_ms = 1000.0 * seconds;
  const double mean_gap_ms = 1000.0 / workload.rate;
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    t += -mean_gap_ms * std::log(1.0 - rng.NextDouble());
    if (t >= duration_ms) break;
    due.push_back(t);
  }
  return due;
}

const qopt::JsonValue* Field(const qopt::JsonValue& json, const char* key) {
  return json.IsObject() ? json.Find(key) : nullptr;
}

/// Per-key memory of solved (non-cached) payloads, for cache-hit checks.
struct Originals {
  std::map<std::string, std::string> payload_by_request;  ///< Labelled form.
  std::map<int, std::set<std::string>> costs_by_key;
};

std::string CostText(const qopt::JsonValue& result) {
  const qopt::JsonValue* cost = Field(result, "cost");
  return cost != nullptr ? JsonNumber(cost->AsNumber()) : "invalid";
}

/// Checks one solve response against the problem as sent. Returns "" when
/// every check passes.
std::string CheckSolve(const ServeLine& line, const qopt::JsonValue& result,
                       bool cached, Originals* originals, bool* valid) {
  const qopt::JsonValue* valid_field = Field(result, "valid");
  if (valid_field == nullptr || !valid_field->IsBool()) return "no valid field";
  *valid = valid_field->AsBool();
  const Instance& problem = line.problem;
  const double tolerance =
      1e-9 * std::max(1.0, std::isfinite(problem.optimum)
                               ? std::abs(problem.optimum)
                               : 1.0);
  if (*valid) {
    const qopt::JsonValue* cost_field = Field(result, "cost");
    if (cost_field == nullptr) return "valid result without cost";
    const double cost = cost_field->AsNumber();
    double recomputed = 0.0;
    if (problem.kind == Kind::kMqo) {
      const qopt::JsonValue* selection_json = Field(result, "selection");
      if (selection_json == nullptr) return "valid result without selection";
      std::vector<int> selection;
      for (std::size_t i = 0; i < selection_json->Size(); ++i) {
        selection.push_back(selection_json->At(i).AsInt());
      }
      if (!problem.mqo->IsValidSelection(selection)) return "invalid selection";
      recomputed = problem.mqo->SelectionCost(selection);
      std::vector<std::uint8_t> bits(
          static_cast<std::size_t>(problem.mqo->NumPlans()), 0);
      for (int plan : selection) bits[static_cast<std::size_t>(plan)] = 1;
      const double energy =
          qopt::EncodeMqoAsQubo(*problem.mqo).qubo.Energy(bits);
      const qopt::JsonValue* reported_field = Field(result, "energy");
      if (reported_field == nullptr) return "valid result without energy";
      const double reported = reported_field->AsNumber();
      if (std::abs(energy - reported) >
          1e-9 * std::max(1.0, std::abs(energy))) {
        return "energy differs from Energy(bits) of the own encoding";
      }
    } else {
      const qopt::JsonValue* order_json = Field(result, "order");
      if (order_json == nullptr) return "valid result without order";
      std::vector<int> order;
      for (std::size_t i = 0; i < order_json->Size(); ++i) {
        order.push_back(order_json->At(i).AsInt());
      }
      if (!qopt::IsValidJoinOrder(*problem.graph, order)) {
        return "order is not a permutation";
      }
      recomputed = qopt::CoutCost(*problem.graph, order);
    }
    // Relative, like the energy check: an exact cache hit returns the cost
    // computed on the labelling that filled the entry, which for a
    // relabelled join can differ from this labelling's in the last bits.
    if (std::abs(recomputed - cost) > 1e-9 * std::max(1.0, std::abs(cost))) {
      return std::string(problem.kind == Kind::kMqo ? "mqo" : "join") +
             (cached ? " cached" : " solved") + " cost " + JsonNumber(cost) +
             " differs from the recomputed " + JsonNumber(recomputed);
    }
    if (std::isfinite(problem.optimum)) {
      if (cost < problem.optimum - tolerance) return "cost below the optimum";
      if (line.backend == qopt::Backend::kExact &&
          cost > problem.optimum + tolerance) {
        return "exact backend missed the optimum";
      }
    }
  }
  const std::string payload = result.Dump();
  if (!cached) {
    originals->payload_by_request.emplace(line.problem.json + "#" +
                                              std::to_string(line.key),
                                          payload);
    originals->costs_by_key[line.key].insert(CostText(result));
    return "";
  }
  // A cached answer is either the verbatim payload of an earlier solve of
  // this exact labelling, or a solution transported from an isomorphic
  // one (re-verified above), whose cost equals that solve's cost.
  const auto it = originals->payload_by_request.find(
      line.problem.json + "#" + std::to_string(line.key));
  if (it != originals->payload_by_request.end() && it->second == payload) {
    return "";
  }
  if (originals->costs_by_key[line.key].count(CostText(result)) > 0) return "";
  return "cached payload matches no solved original";
}

}  // namespace

std::unique_ptr<qopt::serve::Server> MakeServer(std::size_t cache_capacity,
                                                bool trace) {
  qopt::serve::ServerOptions options;
  options.cache_capacity = cache_capacity;
  options.queue_capacity = 64;
  if (trace) {
    options.test_request_hook = [](const qopt::Deadline& deadline) {
      const double now = NowMs();
      const long long index =
          static_cast<long long>(std::ceil(deadline.RemainingMillis())) -
          kTimeoutBase;
      std::lock_guard<std::mutex> lock(Starts().mutex);
      Starts().at_ms[index] = now;
    };
  }
  return std::make_unique<qopt::serve::Server>(options);
}

std::size_t ServeLineCount(const ServeWorkload& workload, std::uint64_t seed,
                           double seconds) {
  return Schedule(workload, seed, seconds).size();
}

ServeRun RunServeStream(const ServeWorkload& workload,
                        const std::vector<ServeLine>& lines,
                        qopt::serve::Server* server, std::uint64_t seed,
                        double seconds) {
  ServeRun run;
  Originals originals;
  const std::vector<double> schedule = Schedule(workload, seed, seconds);
  const std::size_t count = schedule.size();
  const double origin = NowMs() + 5.0;
  std::vector<double> due_ms;
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < count; ++i) {
    due_ms.push_back(origin + schedule[i]);
    texts.push_back(lines[i].text);
  }
  ScheduledFeed feed(std::move(texts), due_ms);
  ResponseSink sink;
  std::istream in(&feed);
  std::ostream out(&sink);
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::thread serving([&] {
    (void)server->Serve(in, out);
    std::lock_guard<std::mutex> lock(done_mutex);
    done = true;
    done_cv.notify_one();
  });
  {
    // A session that cannot drain (a solve that never finishes) must not
    // hang the benchmark: report it and stop without a result.
    const double end_ms = due_ms.empty() ? origin : due_ms.back();
    const auto limit = std::chrono::milliseconds(
        static_cast<long long>(std::max(0.0, end_ms - NowMs())) +
        1000LL * kDrainLimitSeconds);
    std::unique_lock<std::mutex> lock(done_mutex);
    if (!done_cv.wait_for(lock, limit, [&] { return done; })) {
      std::fprintf(stderr,
                   "serve session did not drain within %d s of its last "
                   "request (%zu of %zu responses)\n",
                   kDrainLimitSeconds, sink.Count(), count);
      std::_Exit(3);
    }
  }
  serving.join();
  const std::vector<ResponseSink::Line> responses = sink.Take();
  const std::vector<double>& handoff = feed.HandoffMs();
  run.late_ms = feed.LateMs();
  auto fail = [&](const std::string& what) {
    ++run.failed;
    if (run.errors.size() < 8) run.errors.push_back(what);
  };
  if (responses.size() != count) {
    fail(std::to_string(responses.size()) + " responses for " +
         std::to_string(count) + " lines");
  }
  for (std::size_t k = 0; k < count; ++k) {
    const ServeLine& line = lines[k];
    double latency = std::numeric_limits<double>::infinity();
    std::string problem;
    qopt::StatusOr<qopt::JsonValue> response =
        k < responses.size()
            ? qopt::JsonValue::ParseOrStatus(responses[k].text)
            : qopt::StatusOr<qopt::JsonValue>(
                  qopt::InternalError("missing response"));
    bool ok = false;
    std::string code;
    bool valid = false;
    if (!response.ok()) {
      problem = response.status().ToString();
    } else {
      const qopt::JsonValue* id = Field(*response, "id");
      const bool id_ok = line.expect_id
                             ? id != nullptr && id->IsString() &&
                                   id->AsString() == line.id
                             : id != nullptr && id->IsNull();
      const qopt::JsonValue* ok_field = Field(*response, "ok");
      ok = ok_field != nullptr && ok_field->IsBool() && ok_field->AsBool();
      if (const qopt::JsonValue* error = Field(*response, "error")) {
        if (const qopt::JsonValue* c = Field(*error, "code")) {
          code = c->AsString();
        }
      }
      if (!id_ok) {
        problem = "response id does not match request " + line.id;
      } else if (line.type == ServeLine::Type::kMalformed) {
        if (ok || code != line.expected_code) {
          problem = "malformed " + line.id + " answered " +
                    (ok ? "ok" : code) + ", expected " + line.expected_code;
        }
      } else if (!ok) {
        problem = line.id + " failed: " + responses[k].text;
      } else if (line.type == ServeLine::Type::kSolve) {
        const qopt::JsonValue* cached = Field(*response, "cached");
        const bool from_cache = cached != nullptr && cached->AsBool();
        const qopt::JsonValue* result = Field(*response, "result");
        problem = result == nullptr
                      ? "ok response without a result"
                      : CheckSolve(line, *result, from_cache, &originals,
                                   &valid);
        if (line.use_cache) {
          ++run.cacheable;
          if (from_cache) ++run.cached;
        }
      }
    }
    if (problem.empty()) {
      latency = responses[k].at_ms - due_ms[k];
    } else {
      fail(problem);
    }
    run.latency_ms.push_back(latency);
    if (line.type == ServeLine::Type::kSolve && k < handoff.size()) {
      std::lock_guard<std::mutex> lock(Starts().mutex);
      const auto it = Starts().at_ms.find(static_cast<long long>(k));
      if (it != Starts().at_ms.end()) {
        run.queue_wait_ms.push_back(it->second - handoff[k]);
      }
    }
  }
  return run;
}

}  // namespace perfbench
