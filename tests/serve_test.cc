// qqo_serve robustness and unit tests: request validation, the solution
// cache's LRU / rejection bookkeeping, admission control + overload
// shedding, fault-site isolation (serve.admit / serve.request), the
// canonical-form cache hit paths, pre-cancel semantics and the graceful
// drain (cancel-on-budget) path. The byte-identical replay pins live in
// serve_replay_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "qubo/qubo_canonical.h"
#include "qubo/qubo_model.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/solution_cache.h"

namespace qopt::serve {
namespace {

constexpr const char* kMqoWorkload =
    "{\"queries\":[{\"plans\":[{\"cost\":5},{\"cost\":7}]},"
    "{\"plans\":[{\"cost\":6},{\"cost\":9}]}],"
    "\"savings\":[{\"plan1\":0,\"plan2\":2,\"saving\":2}]}";

/// Same MQO with query 0's plans swapped and the saving remapped: an
/// isomorphic relabeling of the encoded QUBO, not an exact repeat.
constexpr const char* kRelabeledMqoWorkload =
    "{\"queries\":[{\"plans\":[{\"cost\":7},{\"cost\":5}]},"
    "{\"plans\":[{\"cost\":6},{\"cost\":9}]}],"
    "\"savings\":[{\"plan1\":1,\"plan2\":2,\"saving\":2}]}";

/// Three queries of three plans: a 9-qubit QUBO whose race portfolio
/// holds four lanes (exact, sa, qaoa, adiabatic).
constexpr const char* kNineQubitMqoWorkload =
    "{\"queries\":[{\"plans\":[{\"cost\":5},{\"cost\":7},{\"cost\":6}]},"
    "{\"plans\":[{\"cost\":6},{\"cost\":9},{\"cost\":4}]},"
    "{\"plans\":[{\"cost\":8},{\"cost\":3},{\"cost\":7}]}],"
    "\"savings\":[{\"plan1\":0,\"plan2\":3,\"saving\":2},"
    "{\"plan1\":4,\"plan2\":7,\"saving\":3},"
    "{\"plan1\":2,\"plan2\":8,\"saving\":1}]}";

/// A 3-relation chain join, and the same join with its relations
/// relabeled (R0 -> R1, R1 -> R2, R2 -> R0).
constexpr const char* kJoinWorkload =
    "{\"relations\":[{\"cardinality\":10},{\"cardinality\":20},"
    "{\"cardinality\":40}],"
    "\"predicates\":[{\"rel1\":0,\"rel2\":1,\"selectivity\":0.1},"
    "{\"rel1\":1,\"rel2\":2,\"selectivity\":0.5}]}";
constexpr const char* kRelabeledJoinWorkload =
    "{\"relations\":[{\"cardinality\":40},{\"cardinality\":10},"
    "{\"cardinality\":20}],"
    "\"predicates\":[{\"rel1\":1,\"rel2\":2,\"selectivity\":0.1},"
    "{\"rel1\":2,\"rel2\":0,\"selectivity\":0.5}]}";

std::string MqoRequest(const std::string& id, const std::string& workload,
                       const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"type\":\"mqo\",\"backend\":\"exact\"" +
         extra + ",\"workload\":" + workload + "}";
}

/// Runs `requests` through a fresh Server and returns the response lines.
std::vector<std::string> RunServer(const ServerOptions& options,
                                   const std::vector<std::string>& requests,
                                   Server* reuse = nullptr) {
  std::ostringstream joined;
  for (const std::string& request : requests) joined << request << '\n';
  Server local(options);
  Server& server = reuse != nullptr ? *reuse : local;
  std::istringstream in(joined.str());
  std::ostringstream out;
  const Status status = server.Serve(in, out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

JsonValue ParseResponse(const std::string& line) {
  StatusOr<JsonValue> parsed = JsonValue::ParseOrStatus(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *std::move(parsed) : JsonValue::Object();
}

std::string ErrorCode(const JsonValue& response) {
  const JsonValue* error = response.Find("error");
  if (error == nullptr) return "";
  const JsonValue* code = error->Find("code");
  if (code == nullptr) return "";
  StatusOr<std::string> name = code->GetString();
  return name.ok() ? *name : "";
}

// ---------------------------------------------------------------------------
// Protocol validation.

TEST(ServeProtocolTest, ParsesFullMqoRequest) {
  const std::string line = MqoRequest(
      "r1", kMqoWorkload,
      ",\"seed\":11,\"timeout_ms\":500,\"retries\":3,\"dispatch\":\"race\","
      "\"pegasus\":6,\"no_fallback\":true,\"cache\":false");
  StatusOr<ServeRequest> parsed =
      ParseServeRequest(line, DispatchMode::kSerial);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, "r1");
  EXPECT_EQ(parsed->type, RequestType::kMqo);
  EXPECT_TRUE(parsed->mqo.has_value());
  EXPECT_EQ(parsed->backend, Backend::kExact);
  EXPECT_EQ(parsed->dispatch, DispatchMode::kRace);
  EXPECT_EQ(parsed->seed, 11u);
  EXPECT_EQ(parsed->timeout_ms, 500);
  EXPECT_EQ(parsed->retries, 3);
  EXPECT_EQ(parsed->pegasus_m, 6);
  EXPECT_FALSE(parsed->classical_fallback);
  EXPECT_FALSE(parsed->use_cache);
}

TEST(ServeProtocolTest, DefaultDispatchComesFromServer) {
  StatusOr<ServeRequest> parsed = ParseServeRequest(
      MqoRequest("r1", kMqoWorkload), DispatchMode::kRace);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->dispatch, DispatchMode::kRace);
}

TEST(ServeProtocolTest, RejectsMalformedAndInvalidRequests) {
  const DispatchMode d = DispatchMode::kSerial;
  // Not JSON at all.
  EXPECT_FALSE(ParseServeRequest("{\"id\":", d).ok());
  // Not an object.
  EXPECT_FALSE(ParseServeRequest("[1,2]", d).ok());
  // Missing / empty / oversized id.
  EXPECT_FALSE(ParseServeRequest("{\"type\":\"ping\"}", d).ok());
  EXPECT_FALSE(ParseServeRequest("{\"id\":\"\",\"type\":\"ping\"}", d).ok());
  EXPECT_FALSE(ParseServeRequest(
                   "{\"id\":\"" + std::string(kMaxRequestIdBytes + 1, 'a') +
                       "\",\"type\":\"ping\"}",
                   d)
                   .ok());
  // Unknown type / backend, unknown field, wrong field type.
  EXPECT_FALSE(ParseServeRequest("{\"id\":\"r\",\"type\":\"warp\"}", d).ok());
  EXPECT_FALSE(
      ParseServeRequest(
          MqoRequest("r", kMqoWorkload, ",\"backend\":\"abacus\""), d)
          .ok());
  EXPECT_FALSE(
      ParseServeRequest("{\"id\":\"r\",\"type\":\"ping\",\"bogus\":1}", d)
          .ok());
  EXPECT_FALSE(
      ParseServeRequest(MqoRequest("r", kMqoWorkload, ",\"seed\":\"seven\""),
                        d)
          .ok());
  // Out-of-range knobs.
  EXPECT_FALSE(
      ParseServeRequest(MqoRequest("r", kMqoWorkload, ",\"retries\":0"), d)
          .ok());
  EXPECT_FALSE(
      ParseServeRequest(MqoRequest("r", kMqoWorkload, ",\"seed\":-1"), d)
          .ok());
  // Solve without a workload; cancel without a target.
  EXPECT_FALSE(
      ParseServeRequest("{\"id\":\"r\",\"type\":\"mqo\"}", d).ok());
  EXPECT_FALSE(
      ParseServeRequest("{\"id\":\"r\",\"type\":\"cancel\"}", d).ok());
  // Solve-only fields are rejected on admin requests.
  EXPECT_FALSE(
      ParseServeRequest("{\"id\":\"r\",\"type\":\"stats\",\"seed\":1}", d)
          .ok());
}

TEST(ServeProtocolTest, ErrorResponsesAreStructured) {
  const std::string with_id =
      MakeErrorResponse("r9", UnavailableError("queue full"));
  JsonValue parsed = ParseResponse(with_id);
  EXPECT_FALSE(parsed.Find("ok")->GetBool().value());
  EXPECT_EQ(parsed.Find("id")->GetString().value(), "r9");
  EXPECT_EQ(ErrorCode(parsed), "UNAVAILABLE");

  // An id that never parsed serializes as null, not as "".
  const std::string anonymous =
      MakeErrorResponse("", InvalidArgumentError("bad line"));
  EXPECT_NE(anonymous.find("\"id\":null"), std::string::npos);
}

TEST(ServeProtocolTest, BestEffortIdRecoversFromInvalidRequests) {
  // The request fails validation (unknown field) but its id is legal, so
  // the error response can still name it.
  EXPECT_EQ(BestEffortRequestId("{\"id\":\"r7\",\"type\":\"ping\",\"z\":1}"),
            "r7");
  EXPECT_EQ(BestEffortRequestId("{\"id\":"), "");
  EXPECT_EQ(BestEffortRequestId("{\"id\":42,\"type\":\"ping\"}"), "");
  EXPECT_EQ(
      BestEffortRequestId(
          "{\"id\":\"" + std::string(kMaxRequestIdBytes + 1, 'a') + "\"}"),
      "");
}

// ---------------------------------------------------------------------------
// Solution cache.

CacheEntry MakeEntry(std::uint64_t exact_hash) {
  CacheEntry entry;
  entry.exact_hash = exact_hash;
  entry.canonical_bits = {1, 0, 1};
  entry.energy = -3.5;
  entry.payload = "{\"energy\":-3.5}";
  return entry;
}

TEST(SolutionCacheTest, BoundedLruEvictsOldestFirst) {
  SolutionCache cache(2);
  cache.Insert(1, 0, MakeEntry(11));
  cache.Insert(2, 0, MakeEntry(22));
  cache.Insert(3, 0, MakeEntry(33));  // Evicts key 1.
  EXPECT_EQ(cache.Size(), 2u);
  CacheEntry entry;
  EXPECT_EQ(cache.Lookup(1, 0, 11, &entry), CacheHitKind::kMiss);
  EXPECT_EQ(cache.Lookup(2, 0, 22, &entry), CacheHitKind::kExact);
  EXPECT_EQ(cache.Lookup(3, 0, 33, &entry), CacheHitKind::kExact);
  const CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.insertions, 3);
  EXPECT_EQ(counters.evictions, 1);
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.hits_exact, 2);
}

TEST(SolutionCacheTest, LookupRefreshesRecency) {
  SolutionCache cache(2);
  cache.Insert(1, 0, MakeEntry(11));
  cache.Insert(2, 0, MakeEntry(22));
  CacheEntry entry;
  // Touch key 1 so key 2 becomes the eviction victim.
  ASSERT_EQ(cache.Lookup(1, 0, 11, &entry), CacheHitKind::kExact);
  cache.Insert(3, 0, MakeEntry(33));
  EXPECT_EQ(cache.Lookup(1, 0, 11, &entry), CacheHitKind::kExact);
  EXPECT_EQ(cache.Lookup(2, 0, 22, &entry), CacheHitKind::kMiss);
}

TEST(SolutionCacheTest, ReinsertRefreshesInPlace) {
  SolutionCache cache(2);
  cache.Insert(1, 0, MakeEntry(11));
  CacheEntry updated = MakeEntry(99);
  updated.payload = "{\"energy\":-9}";
  cache.Insert(1, 0, updated);
  EXPECT_EQ(cache.Size(), 1u);
  CacheEntry entry;
  EXPECT_EQ(cache.Lookup(1, 0, 99, &entry), CacheHitKind::kExact);
  EXPECT_EQ(entry.payload, "{\"energy\":-9}");
}

TEST(SolutionCacheTest, DistinguishesExactFromIsomorphicHits) {
  SolutionCache cache(4);
  cache.Insert(1, 0, MakeEntry(11));
  CacheEntry entry;
  EXPECT_EQ(cache.Lookup(1, 0, 11, &entry), CacheHitKind::kExact);
  EXPECT_EQ(cache.Lookup(1, 0, 12, &entry), CacheHitKind::kIsomorphic);
  // Same canonical form under different options is a different key.
  EXPECT_EQ(cache.Lookup(1, 5, 11, &entry), CacheHitKind::kMiss);
}

TEST(SolutionCacheTest, RejectionDemotesHitAndDropsEntry) {
  SolutionCache cache(4);
  cache.Insert(1, 0, MakeEntry(11));
  CacheEntry entry;
  ASSERT_EQ(cache.Lookup(1, 0, 12, &entry), CacheHitKind::kIsomorphic);
  cache.RecordRejection(1, 0);
  const CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.hits_isomorphic, 0);
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.rejections, 1);
  // The poisoned entry cannot serve further false hits.
  EXPECT_EQ(cache.Lookup(1, 0, 12, &entry), CacheHitKind::kMiss);
  EXPECT_EQ(cache.Size(), 0u);
}

TEST(SolutionCacheTest, CapacityZeroDisablesCaching) {
  SolutionCache cache(0);
  cache.Insert(1, 0, MakeEntry(11));
  EXPECT_EQ(cache.Size(), 0u);
  CacheEntry entry;
  EXPECT_EQ(cache.Lookup(1, 0, 11, &entry), CacheHitKind::kMiss);
  EXPECT_EQ(cache.Counters().insertions, 0);
}

TEST(SolutionCacheTest, TransportRejectsAnEntryOfAnotherSize) {
  QuboBuilder terms(3);
  terms.AddLinear(0, -1.0);
  terms.AddLinear(2, -2.5);
  terms.AddQuadratic(0, 1, 0.5);
  const QuboModel qubo = std::move(terms).Build();
  const QuboSignature signature = ComputeQuboSignature(qubo);
  double energy = 0.0;
  CacheEntry entry = MakeEntry(11);
  entry.canonical_bits = MapBitsToCanonical(signature, {1, 0, 1});
  ASSERT_TRUE(TransportCanonicalBits(entry, signature, qubo, &energy));
  EXPECT_DOUBLE_EQ(energy, -3.5);
  // A canonical-hash collision with a 2-variable QUBO: the server gets
  // nullopt and rejects the entry, instead of aborting in the mapping.
  entry.canonical_bits = {1, 0};
  EXPECT_FALSE(TransportCanonicalBits(entry, signature, qubo, &energy));
}

// ---------------------------------------------------------------------------
// Server robustness.

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Metrics::Instance().Reset();
    obs::Metrics::Instance().Enable();
  }
  void TearDown() override {
    FaultInjection::Instance().DisarmAll();
    obs::Metrics::Instance().Disable();
  }
};

TEST_F(ServeServerTest, PingAndMalformedLinesCoexist) {
  ServerOptions options;
  const std::vector<std::string> responses = RunServer(
      options, {"{\"id\":\"p1\",\"type\":\"ping\"}", "{oops",
                "{\"id\":\"p2\",\"type\":\"ping\"}"});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("\"pong\":true"), std::string::npos);
  EXPECT_EQ(ErrorCode(ParseResponse(responses[1])), "INVALID_ARGUMENT");
  EXPECT_NE(responses[2].find("\"pong\":true"), std::string::npos)
      << "a malformed line must not stop the loop";
}

TEST_F(ServeServerTest, ZeroCapacityShedsEverySolveDeterministically) {
  ServerOptions options;
  options.queue_capacity = 0;
  Server server(options);
  const std::vector<std::string> responses =
      RunServer(options, {MqoRequest("m1", kMqoWorkload),
                          "{\"id\":\"p1\",\"type\":\"ping\"}"},
                &server);
  ASSERT_EQ(responses.size(), 2u);
  JsonValue shed = ParseResponse(responses[0]);
  EXPECT_EQ(ErrorCode(shed), "UNAVAILABLE");
  EXPECT_NE(responses[0].find("admission queue full"), std::string::npos);
  EXPECT_NE(responses[1].find("\"pong\":true"), std::string::npos)
      << "shedding must not stop the loop";
  EXPECT_EQ(server.Counters().shed, 1);
  EXPECT_EQ(server.Counters().admitted, 0);
}

TEST_F(ServeServerTest, AdmitFaultSiteShedsWithStructuredError) {
  FaultInjection::Instance().Arm("serve.admit",
                                 UnavailableError("injected admit fault"));
  ServerOptions options;
  Server server(options);
  const std::vector<std::string> responses =
      RunServer(options, {MqoRequest("m1", kMqoWorkload),
                          MqoRequest("m2", kMqoWorkload)},
                &server);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(ErrorCode(ParseResponse(responses[0])), "UNAVAILABLE");
  EXPECT_NE(responses[0].find("injected admit fault"), std::string::npos);
  // The fault fires once; the next request is admitted and solved.
  EXPECT_NE(responses[1].find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(server.Counters().shed, 1);
}

TEST_F(ServeServerTest, RequestFaultSiteIsolatesToOneResponse) {
  FaultInjection::Instance().Arm("serve.request",
                                 InternalError("injected worker fault"));
  ServerOptions options;
  const std::vector<std::string> responses =
      RunServer(options, {MqoRequest("m1", kMqoWorkload),
                          MqoRequest("m2", kMqoWorkload)});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(ErrorCode(ParseResponse(responses[0])), "INTERNAL");
  EXPECT_NE(responses[1].find("\"ok\":true"), std::string::npos)
      << "a fault-injected request must not take down the daemon";
}

TEST_F(ServeServerTest, WorkerExceptionBecomesInternalErrorResponse) {
  ServerOptions options;
  options.test_request_hook = [](const Deadline&) {
    throw std::runtime_error("hook exploded");
  };
  const std::vector<std::string> responses = RunServer(
      options, {MqoRequest("m1", kMqoWorkload),
                "{\"id\":\"p1\",\"type\":\"ping\"}"});
  ASSERT_EQ(responses.size(), 2u);
  JsonValue error = ParseResponse(responses[0]);
  EXPECT_EQ(ErrorCode(error), "INTERNAL");
  EXPECT_NE(responses[0].find("hook exploded"), std::string::npos);
  EXPECT_NE(responses[1].find("\"pong\":true"), std::string::npos);
}

TEST_F(ServeServerTest, DuplicateRequestHitsCacheWithIdenticalPayload) {
  ServerOptions options;
  Server server(options);
  const std::vector<std::string> responses =
      RunServer(options, {MqoRequest("m1", kMqoWorkload),
                          MqoRequest("m2", kMqoWorkload)},
                &server);
  ASSERT_EQ(responses.size(), 2u);
  JsonValue first = ParseResponse(responses[0]);
  JsonValue second = ParseResponse(responses[1]);
  EXPECT_FALSE(first.Find("cached")->GetBool().value());
  EXPECT_TRUE(second.Find("cached")->GetBool().value());
  // Byte-identical solution payload, verified via the hit counters.
  EXPECT_EQ(first.Find("result")->Dump(), second.Find("result")->Dump());
  EXPECT_EQ(server.Cache().Counters().hits_exact, 1);
  EXPECT_EQ(server.Cache().Counters().misses, 1);
}

TEST_F(ServeServerTest, IsomorphicRelabelingHitsThroughCanonicalForm) {
  ServerOptions options;
  Server server(options);
  const std::vector<std::string> responses =
      RunServer(options, {MqoRequest("m1", kMqoWorkload),
                          MqoRequest("m3", kRelabeledMqoWorkload)},
                &server);
  ASSERT_EQ(responses.size(), 2u);
  JsonValue hit = ParseResponse(responses[1]);
  EXPECT_TRUE(hit.Find("cached")->GetBool().value());
  // The transported optimum selects the relabeled cheap plans: global
  // plan 1 (cost 5, now second in query 0) and plan 2 (cost 6).
  const JsonValue* result = hit.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_DOUBLE_EQ(result->Find("cost")->GetNumber().value(), 9.0);
  EXPECT_EQ(result->Find("selection")->Dump(), "[1,2]");
  EXPECT_EQ(server.Cache().Counters().hits_isomorphic, 1);
  EXPECT_EQ(server.Cache().Counters().rejections, 0);
}

TEST_F(ServeServerTest, JoinRepeatsHitExactlyAndIsomorphically) {
  const auto join = [](const std::string& id, const char* workload) {
    return "{\"id\":\"" + id +
           "\",\"type\":\"join\",\"backend\":\"sa\",\"seed\":3,"
           "\"thresholds\":[10],\"workload\":" +
           workload + "}";
  };
  ServerOptions options;
  Server server(options);
  const std::vector<std::string> responses = RunServer(
      options,
      {join("j1", kJoinWorkload), join("j2", kJoinWorkload),
       join("j3", kRelabeledJoinWorkload)},
      &server);
  ASSERT_EQ(responses.size(), 3u);
  for (const std::string& line : responses) {
    const JsonValue response = ParseResponse(line);
    const JsonValue* result = response.Find("result");
    ASSERT_NE(result, nullptr) << line;
    EXPECT_DOUBLE_EQ(result->Find("cost")->GetNumber().value(), 420.0);
  }
  // The transported order joins the relabeled R1 (cardinality 10) first.
  const JsonValue hit = ParseResponse(responses[2]);
  EXPECT_EQ(hit.Find("result")->Find("order")->Dump(), "[1,2,0]");
  EXPECT_EQ(server.Cache().Counters().hits_exact, 1);
  EXPECT_EQ(server.Cache().Counters().hits_isomorphic, 1);
  EXPECT_EQ(server.Cache().Counters().rejections, 0);
}

TEST_F(ServeServerTest, CacheOptOutSolvesEveryTime) {
  ServerOptions options;
  Server server(options);
  const std::vector<std::string> responses = RunServer(
      options,
      {MqoRequest("m1", kMqoWorkload, ",\"cache\":false"),
       MqoRequest("m2", kMqoWorkload, ",\"cache\":false")},
      &server);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(ParseResponse(responses[1]).Find("cached")->GetBool().value());
  EXPECT_EQ(server.Cache().Counters().hits_exact, 0);
  EXPECT_EQ(server.Cache().Counters().insertions, 0);
}

TEST_F(ServeServerTest, PreCancelFiresAtAdmission) {
  ServerOptions options;
  Server server(options);
  const std::vector<std::string> responses = RunServer(
      options,
      {"{\"id\":\"c1\",\"type\":\"cancel\",\"target\":\"m9\"}",
       MqoRequest("m9", kMqoWorkload, ",\"cache\":false")},
      &server);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].find("\"cancelled\":true"), std::string::npos);
  EXPECT_EQ(ErrorCode(ParseResponse(responses[1])), "CANCELLED");
  EXPECT_EQ(server.Counters().cancelled, 1);
}

TEST_F(ServeServerTest, OversizedLineRejectedWithoutParsing) {
  ServerOptions options;
  options.max_line_bytes = 64;
  const std::vector<std::string> responses = RunServer(
      options, {"{\"id\":\"big\",\"type\":\"ping\",\"pad\":\"" +
                    std::string(200, 'x') + "\"}",
                "{\"id\":\"p1\",\"type\":\"ping\"}"});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(ErrorCode(ParseResponse(responses[0])), "RESOURCE_EXHAUSTED");
  EXPECT_NE(responses[1].find("\"pong\":true"), std::string::npos);
}

TEST_F(ServeServerTest, StatsReportsCacheAndServerCounters) {
  ServerOptions options;
  Server server(options);
  const std::vector<std::string> responses = RunServer(
      options,
      {MqoRequest("m1", kMqoWorkload), MqoRequest("m2", kMqoWorkload),
       "{bad", "{\"id\":\"s1\",\"type\":\"stats\"}"},
      &server);
  ASSERT_EQ(responses.size(), 4u);
  JsonValue stats = ParseResponse(responses[3]);
  const JsonValue* result = stats.Find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* cache = result->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_DOUBLE_EQ(cache->Find("hits_exact")->GetNumber().value(), 1.0);
  EXPECT_DOUBLE_EQ(cache->Find("misses")->GetNumber().value(), 1.0);
  const JsonValue* counters = result->Find("server");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("admitted")->GetNumber().value(), 2.0);
  EXPECT_DOUBLE_EQ(counters->Find("completed")->GetNumber().value(), 2.0);
  EXPECT_DOUBLE_EQ(counters->Find("parse_errors")->GetNumber().value(), 1.0);
  ASSERT_NE(result->Find("metrics"), nullptr);
}

TEST_F(ServeServerTest, DrainBudgetCancelsStragglers) {
  // A solve that blocks until its deadline reports cancellation: the hook
  // waits for the drain token (linked into the request deadline) instead
  // of sleeping, so this pins the cancel-on-drain path without timing
  // races. Needs a pool of at least 2 — at size 1 Submit runs inline on
  // the accept thread and Drain() would never be reached while blocked.
  ThreadPool pool(2);
  ScopedDefaultPool guard(&pool);
  std::atomic<int> hook_calls{0};
  ServerOptions options;
  options.drain_budget_ms = 50;
  options.test_request_hook = [&hook_calls](const Deadline& deadline) {
    ++hook_calls;
    while (!deadline.Cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(options);
  const std::vector<std::string> responses = RunServer(
      options, {MqoRequest("m1", kMqoWorkload, ",\"cache\":false")}, &server);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(ErrorCode(ParseResponse(responses[0])), "CANCELLED");
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_EQ(server.Counters().cancelled, 1);
  EXPECT_EQ(server.Counters().completed, 1);
}

TEST_F(ServeServerTest, ConcurrentRacedRequestsAllAnswerOnASmallPool) {
  // Four raced solves in flight on a 2-thread pool, then a stats barrier
  // that waits for all of them. A raced solve runs on a pool worker; if
  // it parked that worker waiting for lanes queued behind the other
  // requests, no response would ever come back.
  ThreadPool pool(2);
  ScopedDefaultPool guard(&pool);
  ServerOptions options;
  std::vector<std::string> requests;
  for (const char* id : {"r0", "r1", "r2", "r3"}) {
    requests.push_back(MqoRequest(id, kNineQubitMqoWorkload,
                                  ",\"dispatch\":\"race\",\"cache\":false"));
  }
  requests.push_back("{\"id\":\"s1\",\"type\":\"stats\"}");
  const std::vector<std::string> responses = RunServer(options, requests);
  ASSERT_EQ(responses.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ErrorCode(ParseResponse(responses[i])), "") << responses[i];
  }
  const JsonValue stats = ParseResponse(responses[4]);
  const JsonValue* result = stats.Find("result");
  ASSERT_NE(result, nullptr) << responses[4];
  EXPECT_DOUBLE_EQ(
      result->Find("server")->Find("completed")->GetNumber().value(), 4.0);
}

TEST_F(ServeServerTest, ShutdownRequestStopsAdmission) {
  ServerOptions options;
  Server server(options);
  server.RequestShutdown();
  std::istringstream in(
      "{\"id\":\"p1\",\"type\":\"ping\"}\n{\"id\":\"p2\",\"type\":\"ping\"}\n");
  std::ostringstream out;
  ASSERT_TRUE(server.Serve(in, out).ok());
  EXPECT_EQ(out.str(), "") << "no line may be admitted after shutdown";
  EXPECT_TRUE(server.ShutdownRequested());
}

}  // namespace
}  // namespace qopt::serve
