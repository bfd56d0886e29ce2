// Tests for the observability layer (src/obs): metrics aggregation and
// export, span tracing and aggregation, cross-thread span parenting, and
// the headline determinism contract — a traced MQO solve produces
// byte-identical stable metrics and span trees at 1 and 8 threads.

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <utility>
#include <vector>

#include "anneal/simulated_annealer.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "core/quantum_optimizer.h"
#include "decompose/decomposer.h"
#include "mqo/mqo_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qopt {
namespace {

using obs::Metrics;
using obs::Tracer;

/// Every test starts and ends with both singletons disarmed and empty so
/// ordering within the binary cannot leak state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Metrics::Instance().Reset();
    Tracer::Instance().Reset();
  }
  void TearDown() override {
    Metrics::Instance().Reset();
    Tracer::Instance().Reset();
  }
};

const Metrics::Row* FindRow(const std::vector<Metrics::Row>& rows,
                            const std::string& name) {
  for (const Metrics::Row& row : rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DecomposedSolveOfHugeEnergiesRecordsNoWrappedRow) {
  // Metrics aggregate integers, so a QUBO energy (a double, here ~1e25)
  // must never be recorded: converting it to long long is undefined and
  // reads back as LLONG_MIN on x86, and summing two such rows overflows.
  QuboBuilder terms(30);
  for (int i = 0; i < 30; ++i) {
    terms.AddLinear(i, (i % 3 == 0) ? -1.0 : 0.5);
    if (i + 1 < 30) terms.AddQuadratic(i, i + 1, (i % 2 == 0) ? 0.75 : -0.5);
  }
  terms.AddOffset(1e25);
  const QuboModel qubo = std::move(terms).Build();
  DecomposeOptions options;
  options.max_subproblem_size = 8;
  options.max_rounds = 3;
  options.seed = 4;
  const SubproblemSolver sa_blocks =
      [](const QuboModel& subproblem, std::uint64_t seed,
         const Deadline& deadline) -> StatusOr<SubproblemResult> {
    AnnealOptions anneal;
    anneal.num_reads = 2;
    anneal.num_sweeps = 50;
    anneal.seed = seed;
    anneal.deadline = deadline;
    QOPT_ASSIGN_OR_RETURN(const AnnealResult annealed,
                          TrySolveQuboWithAnnealing(subproblem, anneal));
    return SubproblemResult{annealed.best_bits};
  };

  Metrics::Instance().Enable();
  const auto result = SolveQuboDecomposed(qubo, options, sa_blocks);
  Metrics::Instance().Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->energy, 9.2e18);  // beyond LLONG_MAX
  for (const Metrics::Row& row : Metrics::Instance().Snapshot(true)) {
    EXPECT_NE(row.min, LLONG_MIN) << row.name;
    EXPECT_NE(row.max, LLONG_MIN) << row.name;
    EXPECT_NE(row.sum, LLONG_MIN) << row.name;
  }
}

TEST_F(ObsTest, DisarmedMacrosRecordNothing) {
  ASSERT_FALSE(Metrics::Armed());
  QQO_COUNT("test.counter", 5);
  QQO_OBSERVE("test.histogram", 7);
  QQO_GAUGE_MAX("test.gauge", 9);
  EXPECT_TRUE(Metrics::Instance().Snapshot(true).empty());
}

TEST_F(ObsTest, CounterGaugeAndHistogramAggregate) {
  Metrics::Instance().Enable();
  QQO_COUNT("test.counter", 2);
  QQO_COUNT("test.counter", 3);
  QQO_GAUGE_MAX("test.gauge", 4);
  QQO_GAUGE_MAX("test.gauge", 9);
  QQO_GAUGE_MAX("test.gauge", 6);
  QQO_OBSERVE("test.histogram", 1);
  QQO_OBSERVE("test.histogram", 100);
  Metrics::Instance().Disable();

  const std::vector<Metrics::Row> rows = Metrics::Instance().Snapshot(false);
  const Metrics::Row* counter = FindRow(rows, "test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->kind, Metrics::Kind::kCounter);
  EXPECT_EQ(counter->count, 2);
  EXPECT_EQ(counter->sum, 5);

  const Metrics::Row* gauge = FindRow(rows, "test.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->kind, Metrics::Kind::kGauge);
  EXPECT_EQ(gauge->sum, 9);  // max, order-independent

  const Metrics::Row* hist = FindRow(rows, "test.histogram");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, Metrics::Kind::kHistogram);
  EXPECT_EQ(hist->count, 2);
  EXPECT_EQ(hist->sum, 101);
  EXPECT_EQ(hist->min, 1);
  EXPECT_EQ(hist->max, 100);
  long long bucketed = 0;
  for (long long b : hist->buckets) bucketed += b;
  EXPECT_EQ(bucketed, 2);
}

TEST_F(ObsTest, AnnealCountsEveryReadAndEverySweep) {
  // One anneal.reads increment per read and one anneal.sweeps increment
  // per read per sweep, whatever the kernel's internal batching: the
  // count column is the number of calls, and the stable table must stay
  // byte-identical across kernels and thread counts.
  QuboBuilder terms(6);
  for (int i = 0; i < 6; ++i) {
    terms.AddLinear(i, i % 2 == 0 ? -1.0 : 0.5);
    if (i + 1 < 6) terms.AddQuadratic(i, i + 1, 0.75);
  }
  const QuboModel qubo = std::move(terms).Build();
  // 5 reads fill one partial pack; 13 fill a full pack and a partial one
  // at every pack width.
  for (const int reads : {5, 13}) {
    AnnealOptions options;
    options.num_reads = reads;
    options.num_sweeps = 50;
    options.seed = 11;
    Metrics::Instance().Reset();
    Metrics::Instance().Enable();
    ASSERT_TRUE(TrySolveQuboWithAnnealing(qubo, options).ok());
    Metrics::Instance().Disable();
    const std::vector<Metrics::Row> rows =
        Metrics::Instance().Snapshot(false);
    const Metrics::Row* read_row = FindRow(rows, "anneal.reads");
    ASSERT_NE(read_row, nullptr);
    EXPECT_EQ(read_row->count, reads);
    EXPECT_EQ(read_row->sum, reads);
    const Metrics::Row* sweeps = FindRow(rows, "anneal.sweeps");
    ASSERT_NE(sweeps, nullptr);
    EXPECT_EQ(sweeps->count, reads * 50);
    EXPECT_EQ(sweeps->sum, reads * 50);
  }
}

TEST_F(ObsTest, EnablePreRegistersStableCatalog) {
  Metrics::Instance().Enable();
  const std::vector<Metrics::Row> rows = Metrics::Instance().Snapshot(false);
  for (const char* name :
       {"anneal.sweeps", "embed.attempts", "fault.fires", "solve.attempts",
        "statevector.gates", "transpile.routing_seeds",
        "variational.iterations"}) {
    const Metrics::Row* row = FindRow(rows, name);
    ASSERT_NE(row, nullptr) << name;
    EXPECT_EQ(row->count, 0) << name;
  }
}

TEST_F(ObsTest, SchedulingMetricsExcludedFromStableSnapshot) {
  EXPECT_TRUE(Metrics::IsSchedulingMetric("threadpool.queue_depth"));
  // Race-lane bookkeeping (cancelled lanes, wait polls) stops at
  // timing-dependent points, so the whole race.* family is scheduling
  // class, like threadpool.*.
  EXPECT_TRUE(Metrics::IsSchedulingMetric("race.wait_polls"));
  EXPECT_TRUE(Metrics::IsSchedulingMetric("race.cancelled_lanes"));
  EXPECT_FALSE(Metrics::IsSchedulingMetric("anneal.sweeps"));
  Metrics::Instance().Enable();
  QQO_GAUGE_MAX("threadpool.queue_depth", 3);
  QQO_COUNT("race.wait_polls", 2);
  EXPECT_EQ(FindRow(Metrics::Instance().Snapshot(false),
                    "threadpool.queue_depth"),
            nullptr);
  EXPECT_EQ(FindRow(Metrics::Instance().Snapshot(false), "race.wait_polls"),
            nullptr);
  // FindRow points into the vector it searches, so the snapshot must
  // outlive the row pointers.
  const std::vector<Metrics::Row> all_rows = Metrics::Instance().Snapshot(true);
  const Metrics::Row* row = FindRow(all_rows, "threadpool.queue_depth");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->scheduling);
  EXPECT_EQ(row->sum, 3);
  const Metrics::Row* race_row = FindRow(all_rows, "race.wait_polls");
  ASSERT_NE(race_row, nullptr);
  EXPECT_TRUE(race_row->scheduling);
}

TEST_F(ObsTest, MetricsJsonRoundTrips) {
  Metrics::Instance().Enable();
  QQO_COUNT("test.counter", 5);
  QQO_OBSERVE("test.histogram", 12);
  Metrics::Instance().Disable();

  const std::string dumped = Metrics::Instance().ToJson(true).Dump(2);
  std::string error;
  const std::optional<JsonValue> parsed = JsonValue::Parse(dumped, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  // Re-serializing the parsed document reproduces the export exactly.
  EXPECT_EQ(parsed->Dump(2), dumped);

  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->IsArray());
  bool saw_histogram = false;
  for (std::size_t i = 0; i < metrics->Size(); ++i) {
    const JsonValue& entry = metrics->At(i);
    ASSERT_TRUE(entry.Has("name"));
    ASSERT_TRUE(entry.Has("kind"));
    ASSERT_TRUE(entry.Has("count"));
    ASSERT_TRUE(entry.Has("sum"));
    if (entry.Find("name")->AsString() == "test.histogram") {
      saw_histogram = true;
      EXPECT_EQ(entry.Find("kind")->AsString(), "histogram");
      EXPECT_EQ(entry.Find("min")->AsInt(), 12);
      EXPECT_EQ(entry.Find("max")->AsInt(), 12);
      EXPECT_EQ(entry.Find("buckets")->Size(),
                static_cast<std::size_t>(Metrics::kNumBuckets));
    }
  }
  EXPECT_TRUE(saw_histogram);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TracerAggregatesNestedSpans) {
  Tracer::Instance().Enable();
  for (int i = 0; i < 2; ++i) {
    QQO_TRACE_SPAN("outer");
    QQO_TRACE_SPAN("inner");
  }
  {
    QQO_TRACE_SPAN("outer");
  }
  Tracer::Instance().Disable();

  const std::string tree = Tracer::Instance().AggregatedTreeString(false);
  EXPECT_NE(tree.find("outer/inner"), std::string::npos) << tree;
  // 3 "outer" spans total, 2 with a nested "inner".
  EXPECT_NE(tree.find("3"), std::string::npos) << tree;
  EXPECT_NE(tree.find("2"), std::string::npos) << tree;
}

TEST_F(ObsTest, DisarmedSpansRecordNothing) {
  ASSERT_FALSE(Tracer::Armed());
  {
    QQO_TRACE_SPAN("ghost");
  }
  Tracer::Instance().Enable();
  Tracer::Instance().Disable();
  const JsonValue trace = Tracer::Instance().ChromeTraceJson();
  ASSERT_TRUE(trace.Find("traceEvents")->IsArray());
  EXPECT_EQ(trace.Find("traceEvents")->Size(), 0u);
}

TEST_F(ObsTest, ChromeTraceJsonHasCompleteEvents) {
  Tracer::Instance().Enable();
  {
    QQO_TRACE_SPAN("parent");
    QQO_TRACE_SPAN("child");
  }
  Tracer::Instance().Disable();

  const std::string dumped = Tracer::Instance().ChromeTraceJson().Dump(1);
  std::string error;
  const std::optional<JsonValue> parsed = JsonValue::Parse(dumped, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->Size(), 2u);
  bool saw_child = false;
  for (std::size_t i = 0; i < events->Size(); ++i) {
    const JsonValue& event = events->At(i);
    EXPECT_EQ(event.Find("ph")->AsString(), "X");
    EXPECT_GE(event.Find("ts")->AsNumber(), 0.0);
    EXPECT_GE(event.Find("dur")->AsNumber(), 0.0);
    EXPECT_EQ(event.Find("pid")->AsInt(), 1);
    ASSERT_TRUE(event.Has("tid"));
    ASSERT_TRUE(event.Has("name"));
    if (event.Find("name")->AsString() == "child") {
      saw_child = true;
      EXPECT_EQ(event.Find("args")->Find("path")->AsString(),
                "parent/child");
    }
  }
  EXPECT_TRUE(saw_child);
}

TEST_F(ObsTest, WorkerSpansParentUnderSubmittingSpan) {
  Tracer::Instance().Enable();
  ThreadPool pool(4);
  {
    QQO_TRACE_SPAN("submit");
    pool.ParallelFor(16, [](std::size_t) {
      QQO_TRACE_SPAN("work");
    });
  }
  Tracer::Instance().Disable();

  const std::string tree = Tracer::Instance().AggregatedTreeString(false);
  // All 16 worker-side spans nest under the submitting span, none detach
  // to a root-level "work" row.
  EXPECT_NE(tree.find("submit/work"), std::string::npos) << tree;
  EXPECT_NE(tree.find("16"), std::string::npos) << tree;
  EXPECT_EQ(tree.find("\nwork"), std::string::npos) << tree;
}

// ---------------------------------------------------------------------------
// Golden determinism: traced solve at 1 thread == at 8 threads
// ---------------------------------------------------------------------------

/// One traced + metered MQO solve; returns (stable metrics table,
/// duration-free span tree) for byte comparison.
std::pair<std::string, std::string> TracedSolve(const MqoProblem& problem,
                                                const OptimizerOptions& options) {
  Metrics::Instance().Reset();
  Tracer::Instance().Reset();
  Metrics::Instance().Enable();
  Tracer::Instance().Enable();
  const MqoSolveReport report = TrySolveMqo(problem, options).value();
  Metrics::Instance().Disable();
  Tracer::Instance().Disable();
  EXPECT_TRUE(report.valid);
  return {Metrics::Instance().TableString(false),
          Tracer::Instance().AggregatedTreeString(false)};
}

TEST_F(ObsTest, TracedMqoSolveIsByteIdenticalAcrossThreadCounts) {
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 4;
  gen.seed = 11;
  const MqoProblem problem = GenerateMqoProblem(gen);
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 8;
  options.anneal.num_sweeps = 100;
  options.seed = 7;

  ThreadPool serial(1);
  ThreadPool parallel(8);
  std::pair<std::string, std::string> at_one;
  std::pair<std::string, std::string> at_eight;
  {
    ScopedDefaultPool guard(&serial);
    at_one = TracedSolve(problem, options);
  }
  {
    ScopedDefaultPool guard(&parallel);
    at_eight = TracedSolve(problem, options);
  }
  EXPECT_EQ(at_one.first, at_eight.first);    // stable metrics table
  EXPECT_EQ(at_one.second, at_eight.second);  // aggregated span tree

  // The tables are not trivially empty: the annealer actually counted.
  EXPECT_NE(at_one.first.find("anneal.sweeps"), std::string::npos);
  EXPECT_NE(at_one.second.find("solve.dispatch"), std::string::npos);
}

TEST_F(ObsTest, QaoaSolveCoversAcceptanceMetrics) {
  MqoGeneratorOptions gen;
  gen.num_queries = 2;
  gen.plans_per_query = 2;  // 4 qubits: statevector stays tiny
  gen.seed = 3;
  const MqoProblem problem = GenerateMqoProblem(gen);
  OptimizerOptions options;
  options.backend = Backend::kQaoa;
  options.seed = 5;

  Metrics::Instance().Enable();
  Tracer::Instance().Enable();
  const MqoSolveReport report = TrySolveMqo(problem, options).value();
  Metrics::Instance().Disable();
  Tracer::Instance().Disable();
  ASSERT_TRUE(report.valid);
  EXPECT_GE(report.stats.attempts, 1);
  EXPECT_GE(report.stats.elapsed_ms, 0.0);

  const std::vector<Metrics::Row> rows = Metrics::Instance().Snapshot(false);
  const Metrics::Row* attempts = FindRow(rows, "solve.attempts");
  ASSERT_NE(attempts, nullptr);
  EXPECT_GE(attempts->sum, 1);
  const Metrics::Row* iterations = FindRow(rows, "variational.iterations");
  ASSERT_NE(iterations, nullptr);
  EXPECT_GT(iterations->sum, 0);
  const Metrics::Row* gates = FindRow(rows, "statevector.gates");
  ASSERT_NE(gates, nullptr);
  EXPECT_GT(gates->sum, 0);
}

}  // namespace
}  // namespace qopt
