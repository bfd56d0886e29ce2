#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "circuit/quantum_circuit.h"
#include "circuit/statevector.h"
#include "common/random.h"
#include "qubo/conversions.h"
#include "qubo/qubo_model.h"

namespace qopt {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(QuantumCircuitTest, DepthOfSequentialGatesOnOneQubit) {
  QuantumCircuit c(1);
  c.H(0);
  c.X(0);
  c.Z(0);
  EXPECT_EQ(c.Depth(), 3);
}

TEST(QuantumCircuitTest, ParallelGatesShareALayer) {
  QuantumCircuit c(3);
  c.H(0);
  c.H(1);
  c.H(2);
  EXPECT_EQ(c.Depth(), 1);
}

TEST(QuantumCircuitTest, TwoQubitGateSynchronizesLayers) {
  QuantumCircuit c(2);
  c.H(0);
  c.H(0);
  c.Cx(0, 1);  // qubit 1 is fresh but must wait for qubit 0's layer 2
  EXPECT_EQ(c.Depth(), 3);
}

TEST(QuantumCircuitTest, CountOpsAndTwoQubitCount) {
  QuantumCircuit c(3);
  c.H(0);
  c.Cx(0, 1);
  c.Cx(1, 2);
  c.Rzz(0, 2, 0.3);
  const auto counts = c.CountOps();
  EXPECT_EQ(counts.at("h"), 1);
  EXPECT_EQ(counts.at("cx"), 2);
  EXPECT_EQ(counts.at("rzz"), 1);
  EXPECT_EQ(c.TwoQubitGateCount(), 3);
}

TEST(QuantumCircuitTest, BindReplacesParameters) {
  QuantumCircuit c(2);
  c.Ry(0, 0.0);
  c.Cx(0, 1);
  c.Rz(1, 0.0);
  EXPECT_EQ(c.NumParameters(), 2);
  const QuantumCircuit bound = c.Bind({1.5, -0.5});
  EXPECT_DOUBLE_EQ(bound.Gates()[0].param, 1.5);
  EXPECT_DOUBLE_EQ(bound.Gates()[2].param, -0.5);
}

TEST(QuantumCircuitTest, ExtendAppendsGates) {
  QuantumCircuit a(2);
  a.H(0);
  QuantumCircuit b(2);
  b.Cx(0, 1);
  a.Extend(b);
  EXPECT_EQ(a.NumGates(), 2);
}

// --- Statevector ----------------------------------------------------------

TEST(StatevectorTest, InitialStateIsZeroKet) {
  Statevector state(2);
  EXPECT_DOUBLE_EQ(std::norm(state.Amplitudes()[0]), 1.0);
  EXPECT_DOUBLE_EQ(state.NormSquared(), 1.0);
}

TEST(StatevectorTest, XFlipsBit) {
  QuantumCircuit c(2);
  c.X(1);
  const Statevector state = SimulateCircuit(c);
  // Little-endian: qubit 1 set -> index 2.
  EXPECT_NEAR(std::norm(state.Amplitudes()[2]), 1.0, 1e-12);
}

TEST(StatevectorTest, HadamardMakesBalancedSuperposition) {
  QuantumCircuit c(1);
  c.H(0);
  const Statevector state = SimulateCircuit(c);
  EXPECT_NEAR(std::norm(state.Amplitudes()[0]), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(state.Amplitudes()[1]), 0.5, 1e-12);
}

TEST(StatevectorTest, BellStateFromHAndCnot) {
  QuantumCircuit c(2);
  c.H(0);
  c.Cx(0, 1);
  const Statevector state = SimulateCircuit(c);
  EXPECT_NEAR(std::norm(state.Amplitudes()[0]), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(state.Amplitudes()[3]), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(state.Amplitudes()[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::norm(state.Amplitudes()[2]), 0.0, 1e-12);
}

TEST(StatevectorTest, GhzStateOnFourQubits) {
  QuantumCircuit c(4);
  c.H(0);
  for (int q = 0; q + 1 < 4; ++q) c.Cx(q, q + 1);
  const Statevector state = SimulateCircuit(c);
  EXPECT_NEAR(std::norm(state.Amplitudes()[0]), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(state.Amplitudes()[15]), 0.5, 1e-12);
}

TEST(StatevectorTest, ThreeCnotsSwapStates) {
  // The paper's Fig. 2: |01> -> |10> with three CNOTs.
  QuantumCircuit c(2);
  c.X(0);  // prepare |01> in (q1 q0) notation: qubit 0 = 1
  c.Cx(0, 1);
  c.Cx(1, 0);
  c.Cx(0, 1);
  const Statevector state = SimulateCircuit(c);
  // Afterwards qubit 1 = 1, qubit 0 = 0 -> index 2.
  EXPECT_NEAR(std::norm(state.Amplitudes()[2]), 1.0, 1e-12);
}

TEST(StatevectorTest, SwapGateMatchesThreeCnots) {
  Rng rng(3);
  QuantumCircuit prep(2);
  prep.Ry(0, rng.NextDouble(0, kPi));
  prep.Ry(1, rng.NextDouble(0, kPi));
  prep.Cx(0, 1);

  QuantumCircuit with_swap = prep;
  with_swap.Swap(0, 1);
  QuantumCircuit with_cnots = prep;
  with_cnots.Cx(0, 1);
  with_cnots.Cx(1, 0);
  with_cnots.Cx(0, 1);

  const auto a = SimulateCircuit(with_swap).Amplitudes();
  const auto b = SimulateCircuit(with_cnots).Amplitudes();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12);
  }
}

TEST(StatevectorTest, CzIsSymmetricPhase) {
  QuantumCircuit c(2);
  c.H(0);
  c.H(1);
  c.Cz(0, 1);
  const auto amps = SimulateCircuit(c).Amplitudes();
  EXPECT_NEAR(amps[3].real(), -0.5, 1e-12);
  EXPECT_NEAR(amps[0].real(), 0.5, 1e-12);
}

TEST(StatevectorTest, RzzAppliesCorrectPhases) {
  const double theta = 0.7;
  QuantumCircuit c(2);
  c.H(0);
  c.H(1);
  c.Rzz(0, 1, theta);
  const auto amps = SimulateCircuit(c).Amplitudes();
  const std::complex<double> equal =
      std::exp(std::complex<double>(0, -theta / 2.0)) * 0.5;
  const std::complex<double> diff =
      std::exp(std::complex<double>(0, theta / 2.0)) * 0.5;
  EXPECT_NEAR(std::abs(amps[0] - equal), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(amps[3] - equal), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(amps[1] - diff), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(amps[2] - diff), 0.0, 1e-12);
}

TEST(StatevectorTest, RzzEqualsCxRzCx) {
  const double theta = 1.23;
  QuantumCircuit prep(2);
  prep.H(0);
  prep.Ry(1, 0.4);

  QuantumCircuit direct = prep;
  direct.Rzz(0, 1, theta);
  QuantumCircuit decomposed = prep;
  decomposed.Cx(0, 1);
  decomposed.Rz(1, theta);
  decomposed.Cx(0, 1);

  const auto a = SimulateCircuit(direct).Amplitudes();
  const auto b = SimulateCircuit(decomposed).Amplitudes();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12);
  }
}

class UnitarityTest : public ::testing::TestWithParam<int> {};

TEST_P(UnitarityTest, RandomCircuitPreservesNorm) {
  Rng rng(GetParam());
  QuantumCircuit c(5);
  for (int g = 0; g < 40; ++g) {
    const int q = rng.NextInt(0, 4);
    switch (rng.NextInt(0, 7)) {
      case 0: c.H(q); break;
      case 1: c.X(q); break;
      case 2: c.Y(q); break;
      case 3: c.Sx(q); break;
      case 4: c.Rx(q, rng.NextDouble(-kPi, kPi)); break;
      case 5: c.Ry(q, rng.NextDouble(-kPi, kPi)); break;
      case 6: c.Rz(q, rng.NextDouble(-kPi, kPi)); break;
      default: {
        int r = rng.NextInt(0, 4);
        while (r == q) r = rng.NextInt(0, 4);
        if (rng.NextBool()) {
          c.Cx(q, r);
        } else {
          c.Rzz(q, r, rng.NextDouble(-kPi, kPi));
        }
        break;
      }
    }
  }
  EXPECT_NEAR(SimulateCircuit(c).NormSquared(), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, UnitarityTest, ::testing::Range(0, 8));

TEST(IsingEnergyTableTest, MatchesDirectEvaluation) {
  Rng rng(9);
  IsingModel ising(5);
  for (int i = 0; i < 5; ++i) ising.AddField(i, rng.NextDouble(-2, 2));
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      if (rng.NextBool(0.5)) ising.AddCoupling(i, j, rng.NextDouble(-2, 2));
    }
  }
  ising.AddOffset(0.7);
  const auto table = IsingEnergyTable(ising);
  ASSERT_EQ(table.size(), 32u);
  for (std::uint64_t index = 0; index < 32; ++index) {
    std::vector<int> spins(5);
    for (int q = 0; q < 5; ++q) spins[q] = (index >> q) & 1 ? 1 : -1;
    EXPECT_NEAR(table[index], ising.Energy(spins), 1e-9);
  }
}

TEST(StatevectorTest, EnergyExpectationOfBasisState) {
  IsingModel ising(2);
  ising.AddField(0, 1.0);
  ising.AddCoupling(0, 1, 2.0);
  QuantumCircuit c(2);
  c.X(0);  // |01> in (q1 q0): spins s0 = +1, s1 = -1
  const Statevector state = SimulateCircuit(c);
  EXPECT_NEAR(state.EnergyExpectation(IsingEnergyTable(ising)), 1.0 - 2.0,
              1e-12);
}

TEST(StatevectorTest, EnergyExpectationOfSuperposition) {
  IsingModel ising(1);
  ising.AddField(0, 3.0);
  QuantumCircuit c(1);
  c.H(0);
  EXPECT_NEAR(SimulateCircuit(c).EnergyExpectation(IsingEnergyTable(ising)),
              0.0, 1e-12);
}

TEST(StatevectorTest, SamplesFollowProbabilities) {
  QuantumCircuit c(1);
  c.Ry(0, 2.0 * std::acos(std::sqrt(0.8)));  // P(0) = 0.8
  const Statevector state = SimulateCircuit(c);
  Rng rng(5);
  int zeros = 0;
  for (int s = 0; s < 5000; ++s) {
    if (state.Sample(&rng)[0] == 0) ++zeros;
  }
  EXPECT_NEAR(zeros / 5000.0, 0.8, 0.03);
}

}  // namespace
}  // namespace qopt
