// Hybrid qbsolv-style decomposition (src/decompose): partition cover and
// determinism, exact-subsolver optimality pins, facade wiring
// (--decompose / OptimizerOptions::decompose), byte-identical results
// across QQO_THREADS on the large-instance workloads, decomposed-vs-plain
// SA quality, and the anytime deadline / cancellation / fault-injection
// regressions of the bugfix sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "bilp/bilp_to_qubo.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/quantum_optimizer.h"
#include "decompose/decomposer.h"
#include "decompose/partition.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_problem.h"
#include "obs/metrics.h"
#include "qubo/brute_force_solver.h"
#include "qubo/qubo_model.h"

namespace qopt {
namespace {

/// Random-ish dense QUBO with negative couplings so the optimum is far
/// from the all-zeros start incumbent.
QuboModel MakeTestQubo(int n) {
  QuboBuilder qubo(n);
  for (int i = 0; i < n; ++i) {
    qubo.AddLinear(i, ((i % 3) - 1) * 1.5 + 0.125 * i);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if ((i * 7 + j * 3) % 4 == 0) {
        qubo.AddQuadratic(i, j, ((i + j) % 5) * 0.5 - 1.25);
      }
    }
  }
  return std::move(qubo).Build();
}

/// Subproblem solver backed by the exact oracle (subproblems are sized to
/// fit under the brute-force cap by construction).
StatusOr<SubproblemResult> ExactSubproblemSolver(const QuboModel& subproblem,
                                                 std::uint64_t /*seed*/,
                                                 const Deadline& deadline) {
  QOPT_ASSIGN_OR_RETURN(const BruteForceResult exact,
                        TrySolveQuboBruteForce(subproblem, deadline));
  SubproblemResult result;
  result.bits = exact.best_bits;
  return result;
}

TEST(PartitionTest, CoversEveryVariableExactlyOnceWithinTheSizeCap) {
  const QuboModel qubo = MakeTestQubo(57);
  const std::vector<std::vector<int>> blocks =
      PartitionQuboVariables(qubo, /*max_block_size=*/10, /*seed=*/42);
  std::set<int> seen;
  for (const std::vector<int>& block : blocks) {
    ASSERT_FALSE(block.empty());
    EXPECT_LE(static_cast<int>(block.size()), 10);
    EXPECT_TRUE(std::is_sorted(block.begin(), block.end()));
    for (int v : block) {
      EXPECT_TRUE(seen.insert(v).second) << "variable in two blocks: " << v;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), qubo.NumVariables());
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), qubo.NumVariables() - 1);
  // Canonical block order: ascending by smallest member.
  for (std::size_t b = 1; b < blocks.size(); ++b) {
    EXPECT_LT(blocks[b - 1].front(), blocks[b].front());
  }
}

TEST(PartitionTest, IsAPureFunctionOfTheSeed) {
  const QuboModel qubo = MakeTestQubo(40);
  const auto a = PartitionQuboVariables(qubo, 8, 7);
  const auto b = PartitionQuboVariables(qubo, 8, 7);
  EXPECT_EQ(a, b);
  // Different seeds shuffle the BFS roots; on a graph this size at least
  // one boundary must move.
  const auto c = PartitionQuboVariables(qubo, 8, 8);
  EXPECT_NE(a, c);
}

TEST(PartitionTest, PacksFragmentsUpToTheBlockCap) {
  // BFS from shuffled roots strands late roots in tiny leftover blocks;
  // the packing pass must merge those, keeping the block count near the
  // ceil(n / max) floor instead of fragmenting into dozens of singletons.
  const QueryGraph graph = GenerateChainQuery(8, 1000.0, 0.1);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  const auto encoding = TryEncodeJoinOrderAsBilp(graph, encoder);
  ASSERT_TRUE(encoding.ok()) << encoding.status().ToString();
  const QuboModel qubo = EncodeBilpAsQubo(encoding->bilp).qubo;
  const auto blocks = PartitionQuboVariables(qubo, 26, 3);
  const int floor_blocks = (qubo.NumVariables() + 25) / 26;
  EXPECT_LE(static_cast<int>(blocks.size()), 2 * floor_blocks);
}

TEST(DecomposeTest, OneBlockCoveringEverythingFindsTheExactOptimum) {
  // With the whole problem in a single block and an exact subsolver, the
  // very first round must land on the proven global optimum.
  const QuboModel qubo = MakeTestQubo(14);
  DecomposeOptions options;
  options.max_subproblem_size = 20;
  options.seed = 5;
  const auto result = SolveQuboDecomposed(qubo, options,
                                          ExactSubproblemSolver);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  EXPECT_NEAR(result->energy, exact.best_energy, 1e-9);
  EXPECT_EQ(result->energy, qubo.Energy(result->bits));
  EXPECT_FALSE(result->timed_out);
  EXPECT_GE(result->rounds, 1);
}

TEST(DecomposeTest, SmallBlocksStillReachTheOptimumOnAChainQubo) {
  // A 1D chain decomposes cleanly: clamped 4-variable blocks plus tabu
  // refinement must recover the global optimum across rounds.
  QuboBuilder terms(16);
  for (int i = 0; i < 16; ++i) terms.AddLinear(i, (i % 2 == 0) ? 0.5 : -0.5);
  for (int i = 0; i + 1 < 16; ++i) terms.AddQuadratic(i, i + 1, -1.0);
  const QuboModel qubo = std::move(terms).Build();
  DecomposeOptions options;
  options.max_subproblem_size = 4;
  options.seed = 11;
  const auto result = SolveQuboDecomposed(qubo, options,
                                          ExactSubproblemSolver);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  EXPECT_NEAR(result->energy, exact.best_energy, 1e-9);
}

TEST(DecomposeTest, RoundEnergiesAreMonotoneAndAnchoredToTheBits) {
  const QuboModel qubo = MakeTestQubo(48);
  DecomposeOptions options;
  options.max_subproblem_size = 12;
  options.seed = 19;
  const auto result = SolveQuboDecomposed(qubo, options,
                                          ExactSubproblemSolver);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(static_cast<int>(result->round_energies.size()), result->rounds);
  for (std::size_t r = 1; r < result->round_energies.size(); ++r) {
    EXPECT_LE(result->round_energies[r], result->round_energies[r - 1] + 1e-9);
  }
  EXPECT_EQ(result->energy, result->round_energies.back());
  EXPECT_EQ(result->energy, qubo.Energy(result->bits));
  EXPECT_GT(result->subproblems, 0);
}

TEST(DecomposeTest, ResultIsByteIdenticalAcrossThreadCounts) {
  const QuboModel qubo = MakeTestQubo(60);
  DecomposeOptions options;
  options.max_subproblem_size = 10;
  options.seed = 23;
  std::vector<DecomposeResult> runs;
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ScopedDefaultPool guard(&pool);
    const auto result = SolveQuboDecomposed(qubo, options,
                                            ExactSubproblemSolver);
    ASSERT_TRUE(result.ok())
        << "threads=" << threads << ": " << result.status().ToString();
    runs.push_back(*result);
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].bits, runs[i].bits);
    EXPECT_EQ(runs[0].energy, runs[i].energy);
    EXPECT_EQ(runs[0].rounds, runs[i].rounds);
    EXPECT_EQ(runs[0].subproblems, runs[i].subproblems);
    EXPECT_EQ(runs[0].round_energies, runs[i].round_energies);
  }
}

TEST(DecomposeTest, MalformedInputsAreInvalidArgument) {
  const QuboModel empty;
  const QuboModel qubo = MakeTestQubo(8);
  DecomposeOptions options;
  EXPECT_EQ(SolveQuboDecomposed(empty, options, ExactSubproblemSolver)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.max_subproblem_size = 1;
  EXPECT_EQ(SolveQuboDecomposed(qubo, options, ExactSubproblemSolver)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.max_subproblem_size = 8;
  options.max_rounds = 0;
  EXPECT_EQ(SolveQuboDecomposed(qubo, options, ExactSubproblemSolver)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.max_rounds = 1;
  EXPECT_EQ(SolveQuboDecomposed(qubo, options, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DecomposeTest, FailedSubproblemsKeepTheIncumbentInsteadOfFailing) {
  // Every block solve dies; the decomposition must still return the
  // (unimproved) incumbent rather than surfacing the block error.
  const QuboModel qubo = MakeTestQubo(12);
  DecomposeOptions options;
  options.max_subproblem_size = 4;
  options.refine_passes = 0;  // isolate the stitch path from refinement
  options.max_rounds = 2;
  const auto result = SolveQuboDecomposed(
      qubo, options,
      [](const QuboModel&, std::uint64_t, const Deadline&)
          -> StatusOr<SubproblemResult> {
        return UnavailableError("injected block failure");
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<std::uint8_t> zeros(12, 0);
  EXPECT_EQ(result->bits, zeros);
  EXPECT_EQ(result->energy, qubo.Energy(zeros));
}

TEST(DecomposeTest, CancelledSubproblemAbortsTheWholeSolve) {
  const QuboModel qubo = MakeTestQubo(12);
  DecomposeOptions options;
  options.max_subproblem_size = 4;
  const auto result = SolveQuboDecomposed(
      qubo, options,
      [](const QuboModel&, std::uint64_t, const Deadline&)
          -> StatusOr<SubproblemResult> {
        return CancelledError("caller gave up");
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(DecomposeTest, FiredTokenSurfacesCancelledNotATruncatedResult) {
  const QuboModel qubo = MakeTestQubo(24);
  CancelToken token;
  token.Cancel();
  DecomposeOptions options;
  options.max_subproblem_size = 6;
  options.deadline = Deadline::Infinite().WithToken(&token);
  const auto result = SolveQuboDecomposed(qubo, options,
                                          ExactSubproblemSolver);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(DecomposeTest, DeadlineMidSolvePreservesTheAnytimeInvariant) {
  // Slow blocks against a short wall: the solve must come back OK and
  // timed_out with a fully stitched incumbent whose energy matches its
  // bits exactly — never a half-applied block, never an error.
  const QuboModel qubo = MakeTestQubo(40);
  DecomposeOptions options;
  options.max_subproblem_size = 5;
  options.max_rounds = 50;
  options.seed = 3;
  options.deadline = Deadline::AfterMillis(60);
  // Round 1's eight 5-variable blocks solve at once; every later block
  // waits out the wall, so expiry lands mid-solve at any pool size.
  const int round_one_blocks =
      qubo.NumVariables() / options.max_subproblem_size;
  std::atomic<int> calls{0};
  const auto result = SolveQuboDecomposed(
      qubo, options,
      [&](const QuboModel& subproblem, std::uint64_t seed,
          const Deadline& deadline) -> StatusOr<SubproblemResult> {
        if (calls.fetch_add(1) >= round_one_blocks) {
          while (!deadline.Expired()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        return ExactSubproblemSolver(subproblem, seed, deadline);
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->timed_out);
  ASSERT_EQ(static_cast<int>(result->bits.size()), qubo.NumVariables());
  EXPECT_EQ(result->energy, qubo.Energy(result->bits));
  // The incumbent can only have moved downhill from the all-zeros start.
  EXPECT_LE(result->energy,
            qubo.Energy(std::vector<std::uint8_t>(40, 0)) + 1e-9);
}

TEST(DecomposeTest, ExpiredDeadlineAtEntryFailsFastWithNoResult) {
  const QuboModel qubo = MakeTestQubo(12);
  DecomposeOptions options;
  options.deadline = Deadline::AfterMillis(0);
  const auto result = SolveQuboDecomposed(qubo, options,
                                          ExactSubproblemSolver);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Facade wiring: OptimizerOptions::decompose through TrySolveMqo /
// TrySolveJoinOrder on the large-instance workloads.
// ---------------------------------------------------------------------------

/// Cheap per-block anneal settings so the large-instance suites stay
/// comfortably inside the test watchdog (the dispatcher clamps per-block
/// reads/sweeps from these).
OptimizerOptions CheapDecomposeOptions(int decompose, std::uint64_t seed) {
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.decompose = decompose;
  options.seed = seed;
  options.anneal.num_reads = 2;
  options.anneal.num_sweeps = 200;
  return options;
}

class DecomposeFacadeTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Instance().DisarmAll(); }
};

TEST_F(DecomposeFacadeTest, RejectsDecomposeOfOne) {
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.decompose = 1;
  const auto report = TrySolveMqo(problem, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DecomposeFacadeTest, FittingProblemsDispatchNormally) {
  // decompose only fires above the threshold: the 8-qubit paper MQO with
  // decompose=100 must take the ordinary serial path (no rounds).
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kExact;
  options.decompose = 100;
  const auto report = TrySolveMqo(problem, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->valid);
  EXPECT_EQ(report->stats.decompose_rounds, 0);
  EXPECT_TRUE(report->stats.decompose_round_energies.empty());
}

TEST_F(DecomposeFacadeTest, FortyRelationChainIsByteIdenticalAcrossThreads) {
  // The ISSUE's headline acceptance: a join graph whose QUBO (~9.8k
  // qubits) dwarfs every backend cap solves via --decompose, and the full
  // report is byte-identical at QQO_THREADS = 1 / 2 / 8.
  const QueryGraph graph = GenerateChainQuery(40, 1000.0, 0.1);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  OptimizerOptions options = CheapDecomposeOptions(26, 17);

  std::vector<JoinOrderSolveReport> runs;
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ScopedDefaultPool guard(&pool);
    const auto report = TrySolveJoinOrder(graph, encoder, options);
    ASSERT_TRUE(report.ok())
        << "threads=" << threads << ": " << report.status().ToString();
    runs.push_back(*report);
  }
  const JoinOrderSolveReport& base = runs[0];
  EXPECT_GT(base.qubits, 1000);
  EXPECT_GT(base.stats.decompose_rounds, 0);
  EXPECT_GT(base.stats.decompose_subproblems, 0);
  EXPECT_FALSE(base.stats.timed_out);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(base.bits, runs[i].bits);
    EXPECT_EQ(base.qubo_energy, runs[i].qubo_energy);
    EXPECT_EQ(base.valid, runs[i].valid);
    EXPECT_EQ(base.stats.attempts, runs[i].stats.attempts);
    EXPECT_EQ(base.stats.decompose_rounds, runs[i].stats.decompose_rounds);
    EXPECT_EQ(base.stats.decompose_subproblems,
              runs[i].stats.decompose_subproblems);
    EXPECT_EQ(base.stats.decompose_round_energies,
              runs[i].stats.decompose_round_energies);
  }
}

TEST_F(DecomposeFacadeTest, TenByTenMqoBatchIsByteIdenticalAcrossThreads) {
  MqoGeneratorOptions gen;
  gen.num_queries = 10;
  gen.plans_per_query = 10;
  gen.seed = 4;
  const MqoProblem problem = GenerateMqoProblem(gen);
  OptimizerOptions options = CheapDecomposeOptions(26, 29);

  std::vector<MqoSolveReport> runs;
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ScopedDefaultPool guard(&pool);
    const auto report = TrySolveMqo(problem, options);
    ASSERT_TRUE(report.ok())
        << "threads=" << threads << ": " << report.status().ToString();
    runs.push_back(*report);
  }
  const MqoSolveReport& base = runs[0];
  EXPECT_EQ(base.qubits, 100);
  EXPECT_GT(base.stats.decompose_rounds, 0);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(base.bits, runs[i].bits);
    EXPECT_EQ(base.qubo_energy, runs[i].qubo_energy);
    EXPECT_EQ(base.valid, runs[i].valid);
    EXPECT_EQ(base.stats.decompose_rounds, runs[i].stats.decompose_rounds);
    EXPECT_EQ(base.stats.decompose_round_energies,
              runs[i].stats.decompose_round_energies);
  }
}

TEST_F(DecomposeFacadeTest, DecomposedBeatsPlainSaAtEqualPerAttemptBudget) {
  // The quality claim from the ISSUE: on a 20-relation chain (~2.4k
  // qubits) the decomposed solve must reach an energy at least as low as
  // one plain SA attempt run with the same anneal settings and seed.
  const QueryGraph graph = GenerateChainQuery(20, 1000.0, 0.1);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;

  OptimizerOptions plain;
  plain.backend = Backend::kSimulatedAnnealing;
  plain.seed = 13;
  plain.anneal.num_reads = 8;
  plain.anneal.num_sweeps = 1000;
  const auto plain_report = TrySolveJoinOrder(graph, encoder, plain);
  ASSERT_TRUE(plain_report.ok()) << plain_report.status().ToString();

  OptimizerOptions decomposed = plain;
  decomposed.decompose = 26;
  const auto decomposed_report =
      TrySolveJoinOrder(graph, encoder, decomposed);
  ASSERT_TRUE(decomposed_report.ok())
      << decomposed_report.status().ToString();

  EXPECT_GT(decomposed_report->stats.decompose_rounds, 0);
  EXPECT_LE(decomposed_report->qubo_energy, plain_report->qubo_energy + 1e-9);
}

TEST_F(DecomposeFacadeTest, PinnedBlocksMatchAReplayOfThePinRule) {
  // The facade pins every sign-definite bit of a block and anneals only
  // the free core. Replay the solve with that rule written out: pin, SA
  // on the core at the facade's per-block settings (<= 8 reads, <= 1000
  // sweeps, the serial schedule's first-attempt seed of the block seed),
  // scatter the core's bits back into the block.
  const QueryGraph graph = GenerateChainQuery(10, 100.0, 0.2);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.decompose = 26;
  options.seed = 41;

  obs::Metrics& metrics = obs::Metrics::Instance();
  metrics.Reset();
  metrics.Enable();
  const auto report = TrySolveJoinOrder(graph, encoder, options);
  metrics.Disable();
  long long forced = 0;
  long long bits_pinned = 0;
  for (const obs::Metrics::Row& row : metrics.Snapshot(false)) {
    if (row.name == "decompose.blocks_forced") forced = row.sum;
    if (row.name == "decompose.bits_pinned") bits_pinned = row.sum;
  }
  metrics.Reset();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(forced, 0);
  // Some block that still dispatched had bits pinned out of its core.
  EXPECT_GT(bits_pinned, 0);

  const StatusOr<JoinOrderEncoding> encoding =
      TryEncodeJoinOrderAsBilp(graph, encoder);
  ASSERT_TRUE(encoding.ok()) << encoding.status().ToString();
  const QuboModel qubo = EncodeBilpAsQubo(encoding->bilp).qubo;
  ASSERT_GT(qubo.NumVariables(), options.decompose);
  DecomposeOptions decompose;
  decompose.max_subproblem_size = options.decompose;
  decompose.seed = options.seed;
  const auto replica = SolveQuboDecomposed(
      qubo, decompose,
      [&](const QuboModel& subproblem, std::uint64_t seed,
          const Deadline& deadline) -> StatusOr<SubproblemResult> {
        const PinnedQubo pinned = PinSignDefiniteBits(subproblem);
        if (pinned.free.empty()) return SubproblemResult{pinned.bits};
        AnnealOptions anneal = options.anneal;
        anneal.seed = AttemptSeed(seed, 1);
        anneal.num_reads = std::min(std::max(1, anneal.num_reads), 8);
        anneal.num_sweeps = std::min(std::max(1, anneal.num_sweeps), 1000);
        anneal.deadline = deadline;
        QOPT_ASSIGN_OR_RETURN(AnnealResult sa,
                              TrySolveQuboWithAnnealing(pinned.core, anneal));
        return SubproblemResult{pinned.Expand(sa.best_bits)};
      });
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  EXPECT_EQ(report->bits, replica->bits);
  EXPECT_EQ(report->stats.decompose_round_energies, replica->round_energies);
  EXPECT_EQ(report->stats.decompose_subproblems, replica->subproblems);
  EXPECT_EQ(report->stats.attempts, replica->subproblems);
  EXPECT_LT(forced, replica->subproblems);
}

TEST_F(DecomposeFacadeTest, AnnealerBlocksNeedAValidPegasusFabric) {
  // The annealer's block cap comes from the Pegasus fabric, built once up
  // front; a fabric size it cannot build is an option error, not an abort.
  MqoGeneratorOptions gen;
  gen.num_queries = 10;
  gen.plans_per_query = 10;
  gen.seed = 4;
  OptimizerOptions options = CheapDecomposeOptions(26, 29);
  options.backend = Backend::kAnnealerEmulation;
  options.pegasus_m = 1;
  const auto report = TrySolveMqo(GenerateMqoProblem(gen), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DecomposeFacadeTest, InvalidBlockOptionsSurfaceAsInAPlainSolve) {
  // Every block runs the same kernel with the same options, so an option
  // out of range fails every block alike. The decomposed solve must
  // surface the kernel's kInvalidArgument, exactly as the plain solve
  // does, instead of reporting the untouched incumbent as a valid,
  // undegraded answer. SA's read budget is capped per block, never raised
  // to 1.
  MqoGeneratorOptions gen;
  gen.num_queries = 5;
  gen.plans_per_query = 4;
  gen.seed = 5;
  const MqoProblem problem = GenerateMqoProblem(gen);  // 20 variables
  OptimizerOptions qaoa;
  qaoa.backend = Backend::kQaoa;
  qaoa.variational.shots = 0;
  qaoa.seed = 3;
  OptimizerOptions sa = CheapDecomposeOptions(0, 3);
  sa.anneal.num_reads = 0;
  for (OptimizerOptions options : {qaoa, sa}) {
    SCOPED_TRACE(BackendName(options.backend));
    const auto plain = TrySolveMqo(problem, options);
    ASSERT_FALSE(plain.ok());
    EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument);
    options.decompose = 8;
    const auto decomposed = TrySolveMqo(problem, options);
    ASSERT_FALSE(decomposed.ok());
    EXPECT_EQ(decomposed.status(), plain.status());
  }
}

/// A chain join-order problem encoded up front, so a test's deadline
/// clock can start after encoding.
StatusOr<EncodedProblem<JoinOrderSolution>> EncodeChainJoin(int relations) {
  const QueryGraph graph = GenerateChainQuery(relations, 100.0, 0.2);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  return EncodeJoinOrderProblem(graph, encoder);
}

StatusOr<JoinOrderSolveReport> SolveEncodedChain(
    const EncodedProblem<JoinOrderSolution>& encoded,
    const OptimizerOptions& options) {
  return TrySolveEncoded<JoinOrderSolution>(
      [&]() -> StatusOr<EncodedProblem<JoinOrderSolution>> {
        return encoded;
      },
      options);
}

TEST_F(DecomposeFacadeTest, DeadlineMidDecomposeReportsTimedOutDegraded) {
  // Satellite regression: a deadline that lands mid-round must yield an
  // OK, degraded, timed_out report carrying the best incumbent — the
  // same anytime contract the plain SA path honors. The clock starts
  // after encoding, and every dispatched block anneals on the emulated
  // annealer with an unbounded sweep count, so it runs until the wall:
  // expiry lands mid-solve at any speed. This relies on
  // SolveDecomposeSubproblem clamping only the SA budget
  // (options.anneal), never options.embedded.anneal; were the embedded
  // budget clamped too, this case would depend on timing again.
  const auto encoded = EncodeChainJoin(10);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  OptimizerOptions options;
  options.backend = Backend::kAnnealerEmulation;
  options.decompose = 8;
  options.seed = 31;
  options.embedded.anneal.num_reads = 1;
  options.embedded.anneal.num_sweeps = std::numeric_limits<int>::max();
  options.budget.deadline = Deadline::AfterMillis(200);
  const auto report = SolveEncodedChain(*encoded, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->stats.timed_out);
  EXPECT_TRUE(report->degraded);
  EXPECT_FALSE(report->degradation_reason.empty());
  EXPECT_FALSE(report->bits.empty());
}

TEST_F(DecomposeFacadeTest, DeadlineMidDecomposeOnSaBlocksReportsTimedOut) {
  // The same contract on SA blocks, whose per-block budget the facade
  // clamps, so no block can be made to run until the wall. The deadline
  // is calibrated instead: a quarter of the time an unbounded solve of
  // the same problem just took, so it lands mid-solve at any speed
  // unless the second solve runs four times faster than the first.
  const auto encoded = EncodeChainJoin(20);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  OptimizerOptions options = CheapDecomposeOptions(26, 31);
  Stopwatch watch;
  const auto unbounded = SolveEncodedChain(*encoded, options);
  const double full_ms = watch.ElapsedMillis();
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  ASSERT_FALSE(unbounded->stats.timed_out);
  options.budget.deadline = Deadline::AfterMillis(full_ms / 4.0);
  const auto report = SolveEncodedChain(*encoded, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->stats.timed_out);
  EXPECT_TRUE(report->degraded);
  EXPECT_FALSE(report->degradation_reason.empty());
  EXPECT_FALSE(report->bits.empty());
}

TEST_F(DecomposeFacadeTest, MidDecomposeCancellationReturnsCancelled) {
  const QueryGraph graph = GenerateChainQuery(20, 1000.0, 0.1);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.decompose = 26;
  options.seed = 31;
  options.anneal.num_reads = 8;
  options.anneal.num_sweeps = 2000;
  CancelToken token;
  options.budget.deadline = Deadline::Infinite().WithToken(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    token.Cancel();
  });
  const auto report = TrySolveJoinOrder(graph, encoder, options);
  canceller.join();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
}

TEST_F(DecomposeFacadeTest, FaultedSubproblemDegradesGracefully) {
  // A fault-killed block keeps its incumbent for the round; the overall
  // decomposed solve must still succeed.
  FaultInjection::Instance().Arm("decompose.subproblem",
                                 UnavailableError("injected block death"),
                                 /*after_n=*/0, /*times=*/3);
  MqoGeneratorOptions gen;
  gen.num_queries = 10;
  gen.plans_per_query = 10;
  gen.seed = 4;
  const MqoProblem problem = GenerateMqoProblem(gen);
  const OptimizerOptions options = CheapDecomposeOptions(26, 29);
  const auto report = TrySolveMqo(problem, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->stats.decompose_rounds, 0);
}

}  // namespace
}  // namespace qopt
