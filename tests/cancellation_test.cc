// Deadline / cancellation behavior of the solver stack, from the kernel
// loops up through the facade: solves under absurdly tight budgets must
// return quickly with a valid Status at every thread count — never crash,
// never hang, never hand back an inconsistent report.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "anneal/simulated_annealer.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/quantum_optimizer.h"
#include "joinorder/query_graph.h"
#include "mqo/mqo_generator.h"
#include "variational/variational_solver.h"

namespace qopt {
namespace {

QuboModel DenseQubo(int n, std::uint64_t seed) {
  Rng rng(seed);
  QuboBuilder qubo(n);
  for (int i = 0; i < n; ++i) {
    qubo.AddLinear(i, rng.NextDouble(-1.0, 1.0));
    for (int j = i + 1; j < n; ++j) {
      qubo.AddQuadratic(i, j, rng.NextDouble(-1.0, 1.0));
    }
  }
  return std::move(qubo).Build();
}

/// An SA workload big enough to be nowhere near done in a few ms.
AnnealOptions HeavyAnneal() {
  AnnealOptions options;
  options.num_reads = 64;
  options.num_sweeps = 20000;
  options.seed = 9;
  return options;
}

TEST(CancellationTest, AnnealingIsAnytimeUnderDeadline) {
  AnnealOptions options = HeavyAnneal();
  options.deadline = Deadline::AfterMillis(10);
  Stopwatch watch;
  StatusOr<AnnealResult> result =
      TrySolveQuboWithAnnealing(DenseQubo(30, 1), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->timed_out);
  // Valid best-so-far state of the right width, within a sane multiple of
  // the budget (sweep boundaries are microseconds apart).
  EXPECT_EQ(result->best_bits.size(), 30u);
  EXPECT_LT(watch.ElapsedMillis(), 2000.0);
}

TEST(CancellationTest, AnnealingZeroBudgetStillReturnsAValidState) {
  AnnealOptions options = HeavyAnneal();
  options.deadline = Deadline::AfterMillis(0);
  StatusOr<AnnealResult> result =
      TrySolveQuboWithAnnealing(DenseQubo(12, 2), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->timed_out);
  EXPECT_EQ(result->best_bits.size(), 12u);
}

TEST(CancellationTest, AnnealingCancelReturnsCancelled) {
  CancelToken token;
  token.Cancel();
  AnnealOptions options = HeavyAnneal();
  options.deadline = Deadline().WithToken(&token);
  StatusOr<AnnealResult> result =
      TrySolveQuboWithAnnealing(DenseQubo(12, 3), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, QaoaDeadlineIsAnErrorNotAPartialResult) {
  VariationalOptions options;
  options.max_iterations = 100000;
  options.deadline = Deadline::AfterMillis(5);
  Stopwatch watch;
  StatusOr<VariationalResult> result =
      TrySolveQuboWithQaoa(DenseQubo(12, 4), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(watch.ElapsedMillis(), 5000.0);
}

TEST(CancellationTest, VqeCancelMidRunReturnsCancelled) {
  CancelToken token;
  token.Cancel();
  VariationalOptions options;
  options.max_iterations = 100000;
  options.deadline = Deadline().WithToken(&token);
  StatusOr<VariationalResult> result =
      TrySolveQuboWithVqe(DenseQubo(10, 5), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// --- Facade acceptance: tight budgets at several thread counts ---------------

/// A join-order problem far too big to finish within tens of ms on the SA
/// settings below.
QueryGraph OversizedJoinQuery() {
  QueryGeneratorOptions gen;
  gen.num_relations = 8;
  gen.num_predicates = 10;
  gen.cardinality_min = 10.0;
  gen.cardinality_max = 100000.0;
  gen.selectivity_min = 0.001;
  gen.seed = 13;
  return GenerateRandomQuery(gen);
}

JoinOrderEncoderOptions JoinEncoder() {
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  return encoder;
}

OptimizerOptions HeavyJoinSolve() {
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 64;
  options.anneal.num_sweeps = 50000;
  options.seed = 21;
  return options;
}

/// One report invariant check shared by every stressed solve: the solve
/// either produced a consistent report or one of the two budget errors.
void ExpectValidOutcome(const StatusOr<JoinOrderSolveReport>& solved) {
  if (!solved.ok()) {
    EXPECT_TRUE(solved.status().code() == StatusCode::kDeadlineExceeded ||
                solved.status().code() == StatusCode::kCancelled)
        << solved.status().ToString();
    return;
  }
  EXPECT_GE(solved->stats.attempts, 1);
  EXPECT_GE(solved->stats.elapsed_ms, 0.0);
  if (solved->stats.timed_out) {
    // timed_out on a successful report implies a degraded result.
    EXPECT_TRUE(solved->degraded);
    EXPECT_FALSE(solved->degradation_reason.empty());
  }
}

TEST(CancellationStressTest, FiftyMsJoinSolveReturnsInBudgetAtAllThreadCounts) {
  const QueryGraph graph = OversizedJoinQuery();
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ScopedDefaultPool guard(&pool);
    OptimizerOptions options = HeavyJoinSolve();
    constexpr double kBudgetMs = 50.0;
    options.budget.deadline = Deadline::AfterMillis(kBudgetMs);
    Stopwatch watch;
    StatusOr<JoinOrderSolveReport> solved =
        TrySolveJoinOrder(graph, JoinEncoder(), options);
    const double elapsed = watch.ElapsedMillis();
    // Acceptance bound: within 2x the budget (plus scheduler slack).
    EXPECT_LT(elapsed, 2 * kBudgetMs + 100.0) << "threads=" << threads;
    ExpectValidOutcome(solved);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_TRUE(solved->stats.timed_out) << "threads=" << threads;
  }
}

TEST(CancellationStressTest, RandomTinyDeadlinesNeverCrashOrMisreport) {
  const QueryGraph graph = OversizedJoinQuery();
  const MqoProblem mqo = MakePaperExampleMqo();
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ScopedDefaultPool guard(&pool);
    for (double budget_ms : {0.0, 1.0, 3.0, 7.0, 20.0}) {
      OptimizerOptions options = HeavyJoinSolve();
      options.budget.deadline = Deadline::AfterMillis(budget_ms);
      ExpectValidOutcome(TrySolveJoinOrder(graph, JoinEncoder(), options));

      OptimizerOptions qaoa = options;
      qaoa.backend = Backend::kQaoa;
      qaoa.variational.max_iterations = 100000;
      StatusOr<MqoSolveReport> mqo_solved = TrySolveMqo(mqo, qaoa);
      if (!mqo_solved.ok()) {
        EXPECT_TRUE(
            mqo_solved.status().code() == StatusCode::kDeadlineExceeded ||
            mqo_solved.status().code() == StatusCode::kCancelled)
            << mqo_solved.status().ToString();
      } else if (mqo_solved->stats.timed_out) {
        EXPECT_TRUE(mqo_solved->degraded);
      }
    }
  }
}

TEST(CancellationStressTest, ZeroBudgetFailsFastWithDeadlineExceeded) {
  OptimizerOptions options = HeavyJoinSolve();
  options.budget.deadline = Deadline::AfterMillis(0);
  Stopwatch watch;
  StatusOr<JoinOrderSolveReport> solved =
      TrySolveJoinOrder(OversizedJoinQuery(), JoinEncoder(), options);
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(watch.ElapsedMillis(), 1000.0);
}

TEST(CancellationStressTest, CancelledSolveNeverDegrades) {
  CancelToken token;
  token.Cancel();
  OptimizerOptions options = HeavyJoinSolve();
  options.backend = Backend::kQaoa;
  options.budget.deadline = Deadline().WithToken(&token);
  StatusOr<MqoSolveReport> solved =
      TrySolveMqo(MakePaperExampleMqo(), options);
  // Cancellation is a caller decision: no classical stand-in, kCancelled
  // all the way out.
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kCancelled);
}

TEST(CancellationStressTest, CancelDuringRetryBackoffReturnsCancelled) {
  // Every annealer attempt fails with a retryable fault, so when the
  // token fires the facade is sitting in a 100-200 ms backoff sleep.
  // Regression: the interrupted sleep used to be misreported as
  // kDeadlineExceeded and routed into the classical salvage path,
  // producing a degraded report for a solve the caller had cancelled.
  FaultInjection::Instance().Arm("annealer.sweep",
                                 UnavailableError("injected transient"), 0,
                                 /*times=*/-1);
  CancelToken token;
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 2;
  options.anneal.num_sweeps = 10;
  options.seed = 9;
  options.budget.deadline = Deadline().WithToken(&token);
  options.budget.retry.max_attempts = 10;
  options.budget.retry.initial_backoff_ms = 200.0;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel();
  });
  StatusOr<MqoSolveReport> solved =
      TrySolveMqo(MakePaperExampleMqo(), options);
  canceller.join();
  FaultInjection::Instance().DisarmAll();
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kCancelled);
}

TEST(CancellationStressTest, QuantumDeadlineDegradesToClassicalWithinBudget) {
  // The QAOA stage gets 80% of the budget (400 ms) and cannot finish: at
  // p = 8 on 12 qubits its Nelder-Mead runs need about 17 000 cheap
  // (sub-ms) evaluations, 14 s at 4 pool threads on a 4-vCPU host, so the
  // stage is cut over 30x short of its end while the deadline is polled
  // often. The reserved slack must still produce a degraded classical
  // result. The budget is generous enough (100 ms of slack) that
  // scheduler hiccups on a loaded test machine cannot eat the salvage
  // window.
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 4;  // 12 qubits
  gen.seed = 6;
  OptimizerOptions options;
  options.backend = Backend::kQaoa;
  options.variational.qaoa_reps = 8;
  options.variational.max_iterations = 100000000;
  options.seed = 3;
  options.budget.deadline = Deadline::AfterMillis(500);
  StatusOr<MqoSolveReport> solved =
      TrySolveMqo(GenerateMqoProblem(gen), options);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_TRUE(solved->degraded);
  EXPECT_EQ(solved->backend_used, Backend::kSimulatedAnnealing);
  // The salvage read completed inside the reserved slack, so the report
  // is degraded but not timed out — timed_out tracks the salvage read
  // itself, not the quantum stage that ran out of budget before it.
  EXPECT_FALSE(solved->stats.timed_out);
  EXPECT_EQ(solved->stats.attempts, 2);
}

TEST(CancellationStressTest, GenerousDeadlineLeavesResultUndegraded) {
  // A completed run under a loose deadline must match the deadline-free
  // run bit-for-bit (determinism for runs that finish).
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 8;
  options.anneal.num_sweeps = 200;
  options.seed = 17;
  const QueryGraph graph = MakePaperExampleQuery();
  StatusOr<JoinOrderSolveReport> free_run =
      TrySolveJoinOrder(graph, JoinEncoder(), options);
  options.budget.deadline = Deadline::AfterMillis(1e7);
  StatusOr<JoinOrderSolveReport> budgeted =
      TrySolveJoinOrder(graph, JoinEncoder(), options);
  ASSERT_TRUE(free_run.ok());
  ASSERT_TRUE(budgeted.ok());
  EXPECT_FALSE(budgeted->degraded);
  EXPECT_FALSE(budgeted->stats.timed_out);
  EXPECT_EQ(budgeted->qubo_energy, free_run->qubo_energy);
  EXPECT_EQ(budgeted->solution.order, free_run->solution.order);
}

}  // namespace
}  // namespace qopt
