#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "anneal/simulated_annealer.h"
#include "bilp/bilp_to_qubo.h"
#include "common/random.h"
#include "decompose/partition.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "qubo/brute_force_solver.h"
#include "qubo/conversions.h"
#include "qubo/ising_model.h"
#include "qubo/qubo_model.h"

namespace qopt {
namespace {

QuboModel MakeRandomQubo(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  QuboModel qubo(n);
  qubo.AddOffset(rng.NextDouble(-5.0, 5.0));
  for (int i = 0; i < n; ++i) qubo.AddLinear(i, rng.NextDouble(-3.0, 3.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(density)) {
        qubo.AddQuadratic(i, j, rng.NextDouble(-3.0, 3.0));
      }
    }
  }
  return qubo;
}

std::vector<std::uint8_t> BitsFromIndex(std::uint64_t index, int n) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    bits[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((index >> i) & 1u);
  }
  return bits;
}

TEST(QuboModelTest, EmptyModelEnergyIsOffset) {
  QuboModel qubo(3);
  qubo.AddOffset(2.5);
  EXPECT_DOUBLE_EQ(qubo.Energy({0, 0, 0}), 2.5);
  EXPECT_DOUBLE_EQ(qubo.Energy({1, 1, 1}), 2.5);
}

TEST(QuboModelTest, LinearAndQuadraticAccumulate) {
  QuboModel qubo(2);
  qubo.AddLinear(0, 1.0);
  qubo.AddLinear(0, 2.0);
  qubo.AddQuadratic(0, 1, 0.5);
  qubo.AddQuadratic(1, 0, 0.25);  // normalized to the same entry
  EXPECT_DOUBLE_EQ(qubo.Linear(0), 3.0);
  EXPECT_DOUBLE_EQ(qubo.Quadratic(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(qubo.Quadratic(1, 0), 0.75);
  EXPECT_EQ(qubo.NumQuadraticTerms(), 1);
}

TEST(QuboModelTest, EnergyOfKnownAssignments) {
  QuboModel qubo(2);
  qubo.AddLinear(0, 1.0);
  qubo.AddLinear(1, -2.0);
  qubo.AddQuadratic(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(qubo.Energy({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(qubo.Energy({1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(qubo.Energy({0, 1}), -2.0);
  EXPECT_DOUBLE_EQ(qubo.Energy({1, 1}), 3.0);
}

TEST(QuboModelTest, CompressRemovesZeroTerms) {
  QuboModel qubo(3);
  qubo.AddQuadratic(0, 1, 1.0);
  qubo.AddQuadratic(0, 1, -1.0);
  qubo.AddQuadratic(1, 2, 2.0);
  EXPECT_EQ(qubo.NumQuadraticTerms(), 2);
  qubo.Compress();
  EXPECT_EQ(qubo.NumQuadraticTerms(), 1);
  EXPECT_DOUBLE_EQ(qubo.Quadratic(1, 2), 2.0);
}

TEST(QuboModelTest, InteractionGraphMatchesTerms) {
  QuboModel qubo(4);
  qubo.AddQuadratic(0, 2, 1.0);
  qubo.AddQuadratic(1, 3, -1.0);
  const SimpleGraph graph = qubo.InteractionGraph();
  EXPECT_EQ(graph.NumVertices(), 4);
  EXPECT_EQ(graph.NumEdges(), 2);
  EXPECT_TRUE(graph.HasEdge(0, 2));
  EXPECT_TRUE(graph.HasEdge(1, 3));
}

class QuboFlipDeltaTest : public ::testing::TestWithParam<int> {};

TEST_P(QuboFlipDeltaTest, FlipDeltaMatchesEnergyDifference) {
  const QuboModel qubo = MakeRandomQubo(8, 0.4, GetParam());
  const CsrAdjacency adjacency = qubo.BuildCsrAdjacency();
  Rng rng(GetParam() + 100);
  std::vector<std::uint8_t> bits(8);
  for (auto& b : bits) b = rng.NextBool() ? 1 : 0;
  for (int i = 0; i < 8; ++i) {
    const double before = qubo.Energy(bits);
    const double delta = qubo.FlipDelta(bits, i, adjacency);
    bits[static_cast<std::size_t>(i)] ^= 1;
    EXPECT_NEAR(qubo.Energy(bits), before + delta, 1e-9);
    bits[static_cast<std::size_t>(i)] ^= 1;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, QuboFlipDeltaTest,
                         ::testing::Range(0, 8));

TEST(IsingModelTest, EnergyOfKnownSpins) {
  IsingModel ising(2);
  ising.AddField(0, 0.5);
  ising.AddCoupling(0, 1, -1.0);
  EXPECT_DOUBLE_EQ(ising.Energy({1, 1}), 0.5 - 1.0);
  EXPECT_DOUBLE_EQ(ising.Energy({-1, 1}), -0.5 + 1.0);
  EXPECT_DOUBLE_EQ(ising.Energy({-1, -1}), -0.5 - 1.0);
}

TEST(IsingModelTest, CouplingNormalization) {
  IsingModel ising(3);
  ising.AddCoupling(2, 0, 1.5);
  EXPECT_DOUBLE_EQ(ising.Coupling(0, 2), 1.5);
  const auto couplings = ising.Couplings();
  ASSERT_EQ(couplings.size(), 1u);
  EXPECT_EQ(couplings[0].first, std::make_pair(0, 2));
}

class ConversionRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ConversionRoundTripTest, QuboToIsingPreservesAllEnergies) {
  const int n = 6;
  const QuboModel qubo = MakeRandomQubo(n, 0.5, GetParam());
  const IsingModel ising = QuboToIsing(qubo);
  for (std::uint64_t index = 0; index < (1u << n); ++index) {
    const auto bits = BitsFromIndex(index, n);
    EXPECT_NEAR(qubo.Energy(bits), ising.Energy(BitsToSpins(bits)), 1e-9);
  }
}

TEST_P(ConversionRoundTripTest, IsingToQuboIsInverse) {
  const int n = 6;
  const QuboModel qubo = MakeRandomQubo(n, 0.5, GetParam());
  const QuboModel round_trip = IsingToQubo(QuboToIsing(qubo));
  for (std::uint64_t index = 0; index < (1u << n); ++index) {
    const auto bits = BitsFromIndex(index, n);
    EXPECT_NEAR(qubo.Energy(bits), round_trip.Energy(bits), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ConversionRoundTripTest,
                         ::testing::Range(0, 10));

TEST(ConversionsTest, BitsToSpinsAndBack) {
  const std::vector<std::uint8_t> bits = {0, 1, 1, 0};
  const std::vector<int> spins = BitsToSpins(bits);
  EXPECT_EQ(spins, (std::vector<int>{-1, 1, 1, -1}));
  EXPECT_EQ(SpinsToBits(spins), bits);
}

TEST(BruteForceTest, FindsKnownMinimum) {
  QuboModel qubo(2);
  qubo.AddLinear(0, -1.0);
  qubo.AddLinear(1, -1.0);
  qubo.AddQuadratic(0, 1, 3.0);
  const BruteForceResult result = TrySolveQuboBruteForce(qubo).value();
  EXPECT_DOUBLE_EQ(result.best_energy, -1.0);
  // Two symmetric optima: {1,0} and {0,1}.
  EXPECT_EQ(result.num_optima, 2u);
}

class BruteForceParamTest : public ::testing::TestWithParam<int> {};

TEST_P(BruteForceParamTest, MatchesNaiveEnumeration) {
  const int n = 10;
  const QuboModel qubo = MakeRandomQubo(n, 0.3, GetParam());
  const BruteForceResult result = TrySolveQuboBruteForce(qubo).value();
  double naive_best = qubo.Energy(BitsFromIndex(0, n));
  for (std::uint64_t index = 1; index < (1u << n); ++index) {
    naive_best = std::min(naive_best, qubo.Energy(BitsFromIndex(index, n)));
  }
  EXPECT_NEAR(result.best_energy, naive_best, 1e-8);
  EXPECT_NEAR(qubo.Energy(result.best_bits), naive_best, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BruteForceParamTest,
                         ::testing::Range(0, 8));

TEST(BruteForceTest, ZeroVariablesHandled) {
  QuboModel qubo(0);
  qubo.AddOffset(3.0);
  const BruteForceResult result = TrySolveQuboBruteForce(qubo).value();
  EXPECT_DOUBLE_EQ(result.best_energy, 3.0);
}

TEST(BruteForceTest, HardCapRejectsOversizedProblems) {
  // 2^31 assignments would walk for hours; past kBruteForceHardCap the
  // Try variant must refuse with kInvalidArgument instead of hanging —
  // even when the caller passes a larger explicit limit.
  const QuboModel oversized(kBruteForceHardCap + 1);
  const auto refused = TrySolveQuboBruteForce(oversized);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  const auto still_refused =
      TrySolveQuboBruteForce(oversized, /*max_variables=*/1000);
  ASSERT_FALSE(still_refused.ok());
  EXPECT_EQ(still_refused.status().code(), StatusCode::kInvalidArgument);
}

TEST(BruteForceTest, CallerCapBelowTheHardCapStillApplies) {
  const QuboModel qubo(12);
  const auto refused = TrySolveQuboBruteForce(qubo, /*max_variables=*/10);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(TrySolveQuboBruteForce(qubo, /*max_variables=*/12).ok());
}

// ---------------------------------------------------------------------------
// ForcedMinimizer: differential checks against the exact oracle and SA.
// ---------------------------------------------------------------------------

/// A QUBO whose every variable is forced to `target`'s bit: random sparse
/// couplings, then each linear term set so that the variable's margin
/// (lo_i for a 0, -hi_i for a 1) is a random value in [0.25, 2].
QuboModel MakeForcedQubo(const std::vector<std::uint8_t>& target,
                         std::uint64_t seed) {
  const int n = static_cast<int>(target.size());
  Rng rng(seed);
  QuboModel qubo(n);
  std::vector<double> negative(static_cast<std::size_t>(n), 0.0);
  std::vector<double> positive(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!rng.NextBool(0.4)) continue;
      const double c = rng.NextDouble(-3.0, 3.0);
      qubo.AddQuadratic(i, j, c);
      for (const int v : {i, j}) {
        (c < 0.0 ? negative : positive)[static_cast<std::size_t>(v)] += c;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    const double margin = rng.NextDouble(0.25, 2.0);
    qubo.AddLinear(i, target[u] ? -positive[u] - margin
                                : -negative[u] + margin);
  }
  return qubo;
}

/// Asserts that `forced` is what the exact oracle and SA (one read of one
/// sweep, and the decomposer's 8 x 1000 block budget) all return.
void ExpectSolversAgree(const QuboModel& qubo,
                        const std::vector<std::uint8_t>& forced,
                        std::uint64_t seed) {
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  EXPECT_EQ(exact.best_bits, forced);
  EXPECT_EQ(exact.num_optima, 1u);
  for (const auto& [reads, sweeps] : {std::pair{1, 1}, std::pair{8, 1000}}) {
    AnnealOptions anneal;
    anneal.num_reads = reads;
    anneal.num_sweeps = sweeps;
    anneal.seed = seed;
    EXPECT_EQ(TrySolveQuboWithAnnealing(qubo, anneal).value().best_bits, forced)
        << reads << " x " << sweeps;
  }
}

TEST(ForcedMinimizerTest, MatchesExactAndSaOnGeneratedForcedQubos) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(seed);
    const int n = 1 + static_cast<int>(seed % 20);
    Rng rng(seed + 1000);
    std::vector<std::uint8_t> target(static_cast<std::size_t>(n));
    for (std::uint8_t& bit : target) bit = rng.NextBool(0.5) ? 1 : 0;
    const QuboModel qubo = MakeForcedQubo(target, seed);
    const std::optional<std::vector<std::uint8_t>> forced =
        ForcedMinimizer(qubo);
    ASSERT_TRUE(forced.has_value());
    EXPECT_EQ(*forced, target);
    ExpectSolversAgree(qubo, *forced, seed + 1);
  }
}

/// The sub-QUBO of `block` with every other variable clamped to
/// `incumbent`, as the decomposer builds it: in-block couplings stay,
/// couplings to a clamped 1 fold into the linear term.
QuboModel ClampBlock(const QuboModel& qubo, const CsrAdjacency& adjacency,
                     const std::vector<int>& block,
                     const std::vector<std::uint8_t>& incumbent) {
  const int m = static_cast<int>(block.size());
  QuboModel sub(m);
  for (int local = 0; local < m; ++local) {
    const int global = block[static_cast<std::size_t>(local)];
    sub.AddLinear(local, qubo.Linear(global));
    const std::size_t u = static_cast<std::size_t>(global);
    for (std::size_t k = adjacency.offsets[u]; k < adjacency.offsets[u + 1];
         ++k) {
      const int neighbor = adjacency.neighbors[k];
      const auto it = std::lower_bound(block.begin(), block.end(), neighbor);
      if (it != block.end() && *it == neighbor) {
        const int other = static_cast<int>(it - block.begin());
        if (other > local) sub.AddQuadratic(local, other, adjacency.coeffs[k]);
      } else if (incumbent[static_cast<std::size_t>(neighbor)]) {
        sub.AddLinear(local, adjacency.coeffs[k]);
      }
    }
  }
  return sub;
}

TEST(ForcedMinimizerTest, MatchesExactAndSaOnClampedJoinOrderBlocks) {
  // The blocks a decomposed join-order solve actually meets: a 10-relation
  // chain's penalty-dominated QUBO, partitioned and clamped against the
  // all-zeros start and against random incumbents.
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  const StatusOr<JoinOrderEncoding> encoding =
      TryEncodeJoinOrderAsBilp(GenerateChainQuery(10, 100.0, 0.2), encoder);
  ASSERT_TRUE(encoding.ok()) << encoding.status().ToString();
  const QuboModel qubo = EncodeBilpAsQubo(encoding->bilp).qubo;
  const CsrAdjacency adjacency = qubo.BuildCsrAdjacency();
  const std::size_t n = static_cast<std::size_t>(qubo.NumVariables());
  int blocks = 0;
  int forced_blocks = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> incumbent(n, 0);
    if (seed > 0) {
      for (std::uint8_t& bit : incumbent) bit = rng.NextBool(0.3) ? 1 : 0;
    }
    for (const std::vector<int>& block : PartitionQuboVariables(
             qubo, adjacency, /*max_block_size=*/16, seed)) {
      const QuboModel sub = ClampBlock(qubo, adjacency, block, incumbent);
      ++blocks;
      const std::optional<std::vector<std::uint8_t>> forced =
          ForcedMinimizer(sub);
      if (!forced) continue;
      ++forced_blocks;
      SCOPED_TRACE(testing::Message() << "seed " << seed << " block at "
                                      << block.front());
      ExpectSolversAgree(sub, *forced, seed + 7);
    }
  }
  // Both outcomes occur, so neither branch passes vacuously.
  EXPECT_GT(forced_blocks, 0);
  EXPECT_LT(forced_blocks, blocks);
}

TEST(ForcedMinimizerTest, ReturnsNulloptUnlessEveryVariableIsForced) {
  // One straddling variable: x0 wants 1 when x1 = 1 and 0 otherwise.
  QuboModel straddle(2);
  straddle.AddLinear(0, 1.0);
  straddle.AddLinear(1, -5.0);
  straddle.AddQuadratic(0, 1, -2.0);
  EXPECT_FALSE(ForcedMinimizer(straddle).has_value());

  // A margin of exactly 0: with x1 = 1, x0 = 0 and x0 = 1 tie.
  QuboModel tie(2);
  tie.AddLinear(0, 1.0);
  tie.AddLinear(1, -5.0);
  tie.AddQuadratic(0, 1, -1.0);
  EXPECT_FALSE(ForcedMinimizer(tie).has_value());
  QuboModel free_bit(1);  // no terms at all: both values tie
  EXPECT_FALSE(ForcedMinimizer(free_bit).has_value());

  // A margin inside SA's 1e-12 descent tolerance counts as a tie too.
  QuboModel tiny(1);
  tiny.AddLinear(0, 1e-13);
  EXPECT_FALSE(ForcedMinimizer(tiny).has_value());

  // A NaN coefficient, in the couplings or the linear part.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  QuboModel nan_coupling(2);
  nan_coupling.AddLinear(0, 4.0);
  nan_coupling.AddLinear(1, 4.0);
  nan_coupling.AddQuadratic(0, 1, nan);
  EXPECT_FALSE(ForcedMinimizer(nan_coupling).has_value());
  QuboModel nan_linear(1);
  nan_linear.AddLinear(0, nan);
  EXPECT_FALSE(ForcedMinimizer(nan_linear).has_value());

  // The same two-variable shape with a clear margin is forced: x0 off
  // (lo = 2 - 1), x1 on (hi = -5 + 0).
  QuboModel forced(2);
  forced.AddLinear(0, 2.0);
  forced.AddLinear(1, -5.0);
  forced.AddQuadratic(0, 1, -1.0);
  EXPECT_EQ(ForcedMinimizer(forced), (std::vector<std::uint8_t>{0, 1}));
}

}  // namespace
}  // namespace qopt
