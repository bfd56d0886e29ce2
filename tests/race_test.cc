// Portfolio-racing dispatch (DispatchMode::kRace): deterministic winner
// selection at any thread count, cancelled-loser cleanliness, race-vs-
// serial result pins on the paper workloads, fault-injected leader death
// — plus regression pins for the serial dispatch-stats bugfix sweep
// (attempt accounting, attempt-seed continuation into salvage/fallback,
// salvage timed_out semantics).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "anneal/simulated_annealer.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/quantum_optimizer.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"

namespace qopt {
namespace {

/// Mirrors the facade's documented per-attempt seed stream (splitmix64
/// finalizer, attempt 1 keeps the caller seed). The salvage/fallback seed
/// pins below fail if the implementation ever drifts from this contract.
std::uint64_t ExpectedAttemptSeed(std::uint64_t seed, int attempt) {
  if (attempt <= 1) return seed;
  std::uint64_t z =
      seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(attempt);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Dense K-partite MQO instance: `queries` x `plans_per_query` variables
/// with savings across all query pairs (same shape the degradation tests
/// use to exceed backend qubit budgets).
MqoProblem MakeDenseMqo(int queries, int plans_per_query) {
  MqoProblem problem;
  for (int q = 0; q < queries; ++q) {
    std::vector<double> costs;
    for (int p = 0; p < plans_per_query; ++p) {
      costs.push_back(5.0 + q + 0.25 * p);
    }
    problem.AddQuery(costs);
  }
  for (int p1 = 0; p1 < problem.NumPlans(); ++p1) {
    for (int p2 = p1 + 1; p2 < problem.NumPlans(); ++p2) {
      if (problem.QueryOfPlan(p1) != problem.QueryOfPlan(p2)) {
        problem.AddSaving(p1, p2, 0.3);
      }
    }
  }
  return problem;
}

class RaceDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Instance().DisarmAll(); }
};

TEST_F(RaceDispatchTest, RaceFindsTheExactOptimumOnThePaperMqo) {
  // 8 qubits: the portfolio includes the exact oracle, which is decisive
  // — the raced report must carry the proven global optimum.
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.dispatch = DispatchMode::kRace;
  options.seed = 7;
  const auto raced = TrySolveMqo(problem, options);
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  ASSERT_TRUE(raced->valid);
  EXPECT_EQ(raced->backend_used, Backend::kExact);
  EXPECT_FALSE(raced->degraded);
  EXPECT_FALSE(raced->stats.timed_out);

  OptimizerOptions oracle_options;
  oracle_options.backend = Backend::kExact;
  const auto oracle = TrySolveMqo(problem, oracle_options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(raced->solution.cost, oracle->solution.cost, 1e-9);
  EXPECT_NEAR(raced->qubo_energy, oracle->qubo_energy, 1e-9);
}

TEST_F(RaceDispatchTest, RacedReportIsIdenticalAcrossThreadCounts) {
  // The determinism contract: winner bits/energy/backend, attempt count
  // and the lane *set* must not depend on how many workers race. (Lane
  // timings and outcomes legitimately vary and are excluded.)
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.dispatch = DispatchMode::kRace;
  options.seed = 21;

  struct Captured {
    MqoSolveReport report;
  };
  std::vector<Captured> runs;
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ScopedDefaultPool guard(&pool);
    const auto report = TrySolveMqo(problem, options);
    ASSERT_TRUE(report.ok())
        << "threads=" << threads << ": " << report.status().ToString();
    runs.push_back({*report});
  }
  const MqoSolveReport& base = runs[0].report;
  ASSERT_TRUE(base.valid);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const MqoSolveReport& other = runs[i].report;
    EXPECT_EQ(base.valid, other.valid);
    EXPECT_EQ(base.backend_used, other.backend_used);
    EXPECT_EQ(base.degraded, other.degraded);
    EXPECT_EQ(base.stats.timed_out, other.stats.timed_out);
    EXPECT_EQ(base.stats.attempts, other.stats.attempts);
    EXPECT_EQ(base.qubo_energy, other.qubo_energy);
    EXPECT_EQ(base.solution.cost, other.solution.cost);
    EXPECT_EQ(base.solution.selection, other.solution.selection);
    ASSERT_EQ(base.stats.lanes.size(), other.stats.lanes.size());
    for (std::size_t lane = 0; lane < base.stats.lanes.size(); ++lane) {
      EXPECT_EQ(base.stats.lanes[lane].backend,
                other.stats.lanes[lane].backend);
    }
  }
}

TEST_F(RaceDispatchTest, SingleLaneRaceMatchesSerialBitForBit) {
  // The paper's 3-relation join example encodes to 25 qubits — above
  // every race-extra cap — so the portfolio collapses to the requested
  // SA lane and the raced result must equal the serial one exactly.
  const QueryGraph graph = MakePaperExampleQuery();
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 40;
  options.anneal.num_sweeps = 1500;
  options.seed = 11;

  options.dispatch = DispatchMode::kSerial;
  const auto serial = TrySolveJoinOrder(graph, encoder, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  options.dispatch = DispatchMode::kRace;
  const auto raced = TrySolveJoinOrder(graph, encoder, options);
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();

  ASSERT_EQ(raced->stats.lanes.size(), 1u);
  EXPECT_EQ(raced->stats.lanes[0].backend, Backend::kSimulatedAnnealing);
  EXPECT_EQ(raced->stats.attempts, 1);
  EXPECT_EQ(raced->backend_used, serial->backend_used);
  EXPECT_EQ(raced->valid, serial->valid);
  EXPECT_EQ(raced->qubo_energy, serial->qubo_energy);
  if (serial->valid) {
    EXPECT_EQ(raced->solution.order, serial->solution.order);
    EXPECT_EQ(raced->solution.cost, serial->solution.cost);
  }
}

TEST_F(RaceDispatchTest, NoFallbackRaceCollapsesToTheRequestedLane) {
  // --no-fallback promised the caller no classical stand-ins; the race
  // must not smuggle them back in as extra lanes.
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.dispatch = DispatchMode::kRace;
  options.classical_fallback = false;
  options.seed = 9;
  const auto raced = TrySolveMqo(problem, options);
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  ASSERT_EQ(raced->stats.lanes.size(), 1u);
  EXPECT_EQ(raced->stats.lanes[0].backend, Backend::kSimulatedAnnealing);
  EXPECT_EQ(raced->backend_used, Backend::kSimulatedAnnealing);
  EXPECT_EQ(raced->stats.attempts, 1);
}

TEST_F(RaceDispatchTest, InvalidOptionsAreNeverMaskedByAWinningLane) {
  // The requested SA lane has invalid options; even though the exact
  // lane wins the race, the caller's input error must surface.
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.dispatch = DispatchMode::kRace;
  options.anneal.num_reads = 0;
  const auto raced = TrySolveMqo(problem, options);
  ASSERT_FALSE(raced.ok());
  EXPECT_EQ(raced.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RaceDispatchTest, FaultedLeaderDiesAndASurvivorWins) {
  // Deterministic mid-race leader death: at pool size 1 the lanes run
  // inline in priority order, so the first race.lane fault kills the
  // exact oracle — the requested backend — and the SA survivor's
  // incumbent must win, reported as a degradation.
  FaultInjection::Instance().Arm("race.lane",
                                 UnavailableError("injected lane death"),
                                 /*after_n=*/0, /*times=*/1);
  ThreadPool pool(1);
  ScopedDefaultPool guard(&pool);
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kExact;
  options.dispatch = DispatchMode::kRace;
  options.seed = 7;
  const auto raced = TrySolveMqo(problem, options);
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  ASSERT_TRUE(raced->valid);
  EXPECT_EQ(raced->backend_used, Backend::kSimulatedAnnealing);
  EXPECT_TRUE(raced->degraded);
  EXPECT_FALSE(raced->degradation_reason.empty());
  ASSERT_FALSE(raced->stats.lanes.empty());
  EXPECT_EQ(raced->stats.lanes[0].backend, Backend::kExact);
  EXPECT_EQ(raced->stats.lanes[0].outcome, "unavailable");
  EXPECT_FALSE(raced->stats.lanes[0].won);
}

TEST_F(RaceDispatchTest, MidRaceCancellationReturnsCancelled) {
  // 24 qubits -> a single heavy SA lane; firing the caller's token
  // mid-race must surface kCancelled (never a degraded report), and the
  // racer must drain its lane before returning.
  const MqoProblem problem = MakeDenseMqo(6, 4);
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.dispatch = DispatchMode::kRace;
  options.anneal.num_reads = 64;
  options.anneal.num_sweeps = 400000;
  options.seed = 3;
  CancelToken token;
  options.budget.deadline = Deadline::Infinite().WithToken(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    token.Cancel();
  });
  const auto raced = TrySolveMqo(problem, options);
  canceller.join();
  ASSERT_FALSE(raced.ok());
  EXPECT_EQ(raced.status().code(), StatusCode::kCancelled);
}

TEST_F(RaceDispatchTest, RaceDeadlineYieldsAnytimeBestSoFar) {
  // Deadline expiry is not a cancellation: the SA lane must stop at the
  // wall and still publish its best-so-far state, reported timed_out
  // (and therefore degraded, per the invariant).
  const MqoProblem problem = MakeDenseMqo(6, 4);
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.dispatch = DispatchMode::kRace;
  options.anneal.num_reads = 64;
  options.anneal.num_sweeps = 400000;
  options.seed = 3;
  options.budget.deadline = Deadline::AfterMillis(120);
  const auto raced = TrySolveMqo(problem, options);
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  EXPECT_EQ(raced->backend_used, Backend::kSimulatedAnnealing);
  EXPECT_TRUE(raced->stats.timed_out);
  EXPECT_TRUE(raced->degraded);
  EXPECT_FALSE(raced->degradation_reason.empty());
}

// ---------------------------------------------------------------------------
// Serial dispatch-stats bugfix pins.
// ---------------------------------------------------------------------------

TEST_F(RaceDispatchTest, SalvageCountsItsAttemptAndIsNotTimedOut) {
  // The quantum stage "times out" via an injected kDeadlineExceeded while
  // the overall budget is unbounded, so the salvage SA read completes
  // comfortably: it must be counted as a real attempt and the report must
  // be degraded but NOT timed_out (the salvage never hit a wall).
  FaultInjection::Instance().Arm("statevector.alloc",
                                 DeadlineExceededError("injected stage wall"),
                                 /*after_n=*/0, /*times=*/1);
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kQaoa;
  options.seed = 77;
  options.anneal.num_sweeps = 400;  // salvage clamps this to 256
  const auto report = TrySolveMqo(problem, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->backend_used, Backend::kSimulatedAnnealing);
  EXPECT_EQ(report->stats.attempts, 2);
  EXPECT_FALSE(report->stats.timed_out);
}

TEST_F(RaceDispatchTest, SalvageContinuesTheAttemptSeedSequence) {
  // The salvage read is attempt 2, so it must run with AttemptSeed(seed,
  // 2) — never the caller's original seed, whose stream attempt 1 already
  // consumed. Reproduce the salvage run standalone and pin the energy.
  FaultInjection::Instance().Arm("statevector.alloc",
                                 DeadlineExceededError("injected stage wall"),
                                 /*after_n=*/0, /*times=*/1);
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kQaoa;
  options.seed = 77;
  options.anneal.num_sweeps = 400;
  const auto report = TrySolveMqo(problem, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const auto encoding = TryEncodeMqoAsQubo(problem);
  ASSERT_TRUE(encoding.ok());
  AnnealOptions cheap;
  cheap.num_reads = 1;
  cheap.num_sweeps = 256;
  cheap.seed = ExpectedAttemptSeed(options.seed, 2);
  const auto replay = TrySolveQuboWithAnnealing(encoding->qubo, cheap);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(report->qubo_energy, replay->best_energy);
}

TEST_F(RaceDispatchTest, FallbackCountsItsAttemptAndContinuesTheSeeds) {
  // 24 variables overflow the adiabatic budget; the SA fallback is
  // attempt 2 and must both be counted and run with AttemptSeed(seed, 2).
  const MqoProblem problem = MakeDenseMqo(6, 4);
  OptimizerOptions options;
  options.backend = Backend::kAdiabatic;
  options.anneal.num_reads = 20;
  options.anneal.num_sweeps = 800;
  options.seed = 3;
  const auto report = TrySolveMqo(problem, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->backend_used, Backend::kSimulatedAnnealing);
  EXPECT_EQ(report->stats.attempts, 2);

  const auto encoding = TryEncodeMqoAsQubo(problem);
  ASSERT_TRUE(encoding.ok());
  AnnealOptions replay_options = options.anneal;
  replay_options.seed = ExpectedAttemptSeed(options.seed, 2);
  const auto replay =
      TrySolveQuboWithAnnealing(encoding->qubo, replay_options);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(report->qubo_energy, replay->best_energy);
}

TEST_F(RaceDispatchTest, RetriedFallbackKeepsCountingAttempts) {
  // Three embedding attempts fail (kUnavailable is retryable), then the
  // exact fallback stands in: 3 + 1 = 4 attempts on the report.
  const MqoProblem problem = MakeDenseMqo(5, 4);  // K20: no P2 embedding
  OptimizerOptions options;
  options.backend = Backend::kAnnealerEmulation;
  options.pegasus_m = 2;
  options.seed = 5;
  options.budget.max_attempts = 3;
  const auto report = TrySolveMqo(problem, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->backend_used, Backend::kExact);
  EXPECT_EQ(report->stats.attempts, 4);
}

}  // namespace
}  // namespace qopt
