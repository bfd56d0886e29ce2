#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
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
  const BruteForceResult result = SolveQuboBruteForce(qubo);
  EXPECT_DOUBLE_EQ(result.best_energy, -1.0);
  // Two symmetric optima: {1,0} and {0,1}.
  EXPECT_EQ(result.num_optima, 2u);
}

class BruteForceParamTest : public ::testing::TestWithParam<int> {};

TEST_P(BruteForceParamTest, MatchesNaiveEnumeration) {
  const int n = 10;
  const QuboModel qubo = MakeRandomQubo(n, 0.3, GetParam());
  const BruteForceResult result = SolveQuboBruteForce(qubo);
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
  const BruteForceResult result = SolveQuboBruteForce(qubo);
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

}  // namespace
}  // namespace qopt
