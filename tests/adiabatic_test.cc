// Tests for the Trotterized adiabatic-evolution simulator (Sec. 3.5).
#include <gtest/gtest.h>

#include "common/random.h"
#include "qubo/brute_force_solver.h"
#include "qubo/conversions.h"
#include "variational/adiabatic.h"

namespace qopt {
namespace {

QuboModel SmallConstraintQubo() {
  // Pick exactly one of three, costs 3/1/2 (ground state = variable 1).
  QuboBuilder qubo(3);
  const double penalty = 10.0;
  for (int i = 0; i < 3; ++i) qubo.AddLinear(i, -penalty);
  qubo.AddQuadratic(0, 1, 2 * penalty);
  qubo.AddQuadratic(0, 2, 2 * penalty);
  qubo.AddQuadratic(1, 2, 2 * penalty);
  qubo.AddLinear(0, 3.0);
  qubo.AddLinear(1, 1.0);
  qubo.AddLinear(2, 2.0);
  return std::move(qubo).Build();
}

TEST(AdiabaticTest, SlowEvolutionReachesGroundState) {
  const QuboModel qubo = SmallConstraintQubo();
  AdiabaticOptions options;
  options.total_time = 30.0;
  options.steps = 400;
  options.seed = 3;
  const AdiabaticResult result =
      TrySolveQuboAdiabatically(qubo, options).value();
  EXPECT_GT(result.ground_state_probability, 0.5);
  EXPECT_NEAR(result.best_energy,
              TrySolveQuboBruteForce(qubo).value().best_energy, 1e-9);
  EXPECT_EQ(result.best_bits, (std::vector<std::uint8_t>{0, 1, 0}));
}

TEST(AdiabaticTest, LongerEvolutionImprovesSuccessProbability) {
  // The adiabatic theorem (Eq. 24): larger T keeps the system in the
  // instantaneous ground state.
  const QuboModel qubo = SmallConstraintQubo();
  auto probability = [&](double total_time) {
    AdiabaticOptions options;
    options.total_time = total_time;
    options.steps = 300;
    return TrySolveQuboAdiabatically(qubo, options)
        .value()
        .ground_state_probability;
  };
  const double fast = probability(0.5);
  const double slow = probability(30.0);
  EXPECT_GT(slow, fast + 0.2);
}

TEST(AdiabaticTest, InstantQuenchStaysNearUniform) {
  // T -> 0 leaves the uniform superposition almost untouched, so the
  // ground-state mass is about (#optima)/2^n.
  QuboBuilder terms(4);
  for (int i = 0; i < 4; ++i) terms.AddLinear(i, 1.0);  // unique optimum 0000
  const QuboModel qubo = std::move(terms).Build();
  AdiabaticOptions options;
  options.total_time = 1e-4;
  options.steps = 10;
  const AdiabaticResult result =
      TrySolveQuboAdiabatically(qubo, options).value();
  EXPECT_NEAR(result.ground_state_probability, 1.0 / 16.0, 0.02);
}

class AdiabaticParamTest : public ::testing::TestWithParam<int> {};

TEST_P(AdiabaticParamTest, SampledBestMatchesBruteForceOnRandomQubos) {
  Rng rng(GetParam());
  QuboBuilder terms(6);
  for (int i = 0; i < 6; ++i) terms.AddLinear(i, rng.NextDouble(-2, 2));
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      if (rng.NextBool(0.5)) terms.AddQuadratic(i, j, rng.NextDouble(-2, 2));
    }
  }
  const QuboModel qubo = std::move(terms).Build();
  AdiabaticOptions options;
  options.total_time = 40.0;
  options.steps = 400;
  options.shots = 2048;
  options.seed = GetParam();
  const AdiabaticResult result =
      TrySolveQuboAdiabatically(qubo, options).value();
  // With a long anneal and many shots the best sample is the optimum.
  EXPECT_NEAR(result.best_energy,
              TrySolveQuboBruteForce(qubo).value().best_energy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdiabaticParamTest, ::testing::Range(0, 6));

// --- Spectral gap -------------------------------------------------------------

TEST(SpectralGapTest, MixerOnlyGapIsTwo) {
  // At s = 0, H = -sum X over n qubits: ground -n, first excited -n + 2.
  IsingModel trivial(3);  // all-zero problem Hamiltonian
  const auto [e0, e1] = std::pair<double, double>{0, 0};
  (void)e0;
  (void)e1;
  // The minimum over the sweep of an all-zero problem stays 2 until s = 1
  // where the problem Hamiltonian is fully degenerate (gap 0 at s = 1,
  // approached linearly): gap(s) = 2(1-s). The sweep minimum is ~0 at s=1.
  const SpectralGap gap = MinimumSpectralGap(trivial, 11);
  EXPECT_NEAR(gap.min_gap, 0.0, 1e-6);
  EXPECT_NEAR(gap.at_s, 1.0, 1e-9);
}

TEST(SpectralGapTest, ProblemEndpointGapMatchesSpectrum) {
  IsingModel ising(2);
  ising.AddField(0, 1.0);
  ising.AddField(1, 2.5);
  // Energies: -3.5, -1.5, 1.5, 3.5 -> gap at s=1 is 2.0. The sweep
  // minimum cannot exceed that endpoint value.
  const SpectralGap gap = MinimumSpectralGap(ising, 21);
  EXPECT_LE(gap.min_gap, 2.0 + 1e-6);
  EXPECT_GT(gap.min_gap, 0.0);
}

TEST(SpectralGapTest, DegenerateGroundStateVanishingGap) {
  // A coupling-only chain has a Z2-symmetric, exactly degenerate ground
  // state, so the sweep minimum gap collapses toward zero near s = 1 —
  // the regime where the adiabatic runtime bound (Eq. 24) blows up.
  IsingModel degenerate(3);
  degenerate.AddCoupling(0, 1, 0.5);
  degenerate.AddCoupling(1, 2, 0.5);
  const SpectralGap gap = MinimumSpectralGap(degenerate, 21);
  EXPECT_LT(gap.min_gap, 0.05);
  EXPECT_GT(gap.at_s, 0.7);
}

TEST(SpectralGapTest, SymmetryBreakingFieldOpensTheGap) {
  // Adding a field that makes the ground state unique lifts the
  // degeneracy, so the minimum gap grows.
  IsingModel degenerate(3);
  degenerate.AddCoupling(0, 1, 0.5);
  degenerate.AddCoupling(1, 2, 0.5);
  IsingModel broken = degenerate;
  broken.AddField(0, 0.4);
  broken.AddField(1, 0.4);
  broken.AddField(2, 0.4);
  EXPECT_GT(MinimumSpectralGap(broken, 21).min_gap,
            MinimumSpectralGap(degenerate, 21).min_gap + 0.05);
}

}  // namespace
}  // namespace qopt
