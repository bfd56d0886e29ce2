#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "circuit/statevector.h"
#include "qubo/brute_force_solver.h"
#include "qubo/conversions.h"
#include "variational/optimizers.h"
#include "variational/qaoa.h"
#include "variational/variational_solver.h"
#include "variational/vqe_ansatz.h"

namespace qopt {
namespace {

/// Max-cut on a triangle as an Ising model: H = s0 s1 + s1 s2 + s0 s2.
/// Ground energy -1 (any 2-1 split).
IsingModel TriangleIsing() {
  IsingModel ising(3);
  ising.AddCoupling(0, 1, 1.0);
  ising.AddCoupling(1, 2, 1.0);
  ising.AddCoupling(0, 2, 1.0);
  return ising;
}

// --- QAOA circuit structure -------------------------------------------------

TEST(QaoaCircuitTest, GateCountsMatchHamiltonian) {
  IsingModel ising(4);
  ising.AddField(0, 1.0);
  ising.AddField(2, -0.5);
  ising.AddCoupling(0, 1, 1.0);
  ising.AddCoupling(2, 3, 1.0);
  ising.AddCoupling(0, 3, 1.0);
  const QuantumCircuit c = BuildQaoaCircuit(ising, {0.3}, {0.2});
  const auto counts = c.CountOps();
  EXPECT_EQ(counts.at("h"), 4);     // initial superposition
  EXPECT_EQ(counts.at("rzz"), 3);   // one per coupling
  EXPECT_EQ(counts.at("rz"), 2);    // one per non-zero field
  EXPECT_EQ(counts.at("rx"), 4);    // mixer
}

TEST(QaoaCircuitTest, RepetitionsScaleGateCount) {
  const IsingModel ising = TriangleIsing();
  const QuantumCircuit p1 = BuildQaoaTemplate(ising, 1);
  const QuantumCircuit p3 = BuildQaoaTemplate(ising, 3);
  EXPECT_EQ(p3.CountOps().at("rzz"), 3 * p1.CountOps().at("rzz"));
  EXPECT_GT(p3.Depth(), p1.Depth());
}

TEST(QaoaCircuitTest, DenserHamiltonianDeeperCircuit) {
  IsingModel sparse(6);
  for (int i = 0; i + 1 < 6; ++i) sparse.AddCoupling(i, i + 1, 1.0);
  IsingModel dense(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) dense.AddCoupling(i, j, 1.0);
  }
  EXPECT_GT(BuildQaoaTemplate(dense).Depth(),
            BuildQaoaTemplate(sparse).Depth());
}

TEST(QaoaCircuitTest, ZeroAngleCircuitIsUniformSuperposition) {
  const IsingModel ising = TriangleIsing();
  const QuantumCircuit c = BuildQaoaCircuit(ising, {0.0}, {0.0});
  const auto probs = SimulateCircuit(c).Probabilities();
  for (double p : probs) EXPECT_NEAR(p, 1.0 / 8.0, 1e-9);
}

// --- VQE ansatz ---------------------------------------------------------------

TEST(VqeAnsatzTest, ParameterCount) {
  EXPECT_EQ(RealAmplitudesNumParameters(5, 3), 20);
  EXPECT_EQ(RealAmplitudesNumParameters(1, 0), 1);
}

TEST(VqeAnsatzTest, FullEntanglementGateCount) {
  const QuantumCircuit c = BuildVqeTemplate(4, 2);
  const auto counts = c.CountOps();
  EXPECT_EQ(counts.at("ry"), 12);      // (reps+1) * n
  EXPECT_EQ(counts.at("cx"), 2 * 6);   // reps * n(n-1)/2
}

TEST(VqeAnsatzTest, LinearEntanglementShallowerThanFull) {
  const QuantumCircuit full = BuildVqeTemplate(8, 3, Entanglement::kFull);
  const QuantumCircuit linear = BuildVqeTemplate(8, 3, Entanglement::kLinear);
  EXPECT_GT(full.Depth(), linear.Depth());
}

TEST(VqeAnsatzTest, DepthIndependentOfProblem) {
  // VQE depth depends only on qubit count (Sec. 5.3.2).
  const QuantumCircuit a = BuildVqeTemplate(6, 3);
  const QuantumCircuit b = BuildVqeTemplate(6, 3);
  EXPECT_EQ(a.Depth(), b.Depth());
}

TEST(VqeAnsatzTest, ZeroAnglesPreserveZeroState) {
  const std::vector<double> thetas(RealAmplitudesNumParameters(3, 2), 0.0);
  const QuantumCircuit c = BuildRealAmplitudes(3, 2, thetas);
  const auto probs = SimulateCircuit(c).Probabilities();
  EXPECT_NEAR(probs[0], 1.0, 1e-9);
}

// --- Classical optimizers -----------------------------------------------------

TEST(NelderMeadTest, MinimizesQuadraticBowl) {
  const Objective f = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0) + 3.0;
  };
  const OptimizeResult result = MinimizeNelderMead(f, {0.0, 0.0}, 500, 1e-10);
  EXPECT_NEAR(result.fval, 3.0, 1e-4);
  EXPECT_NEAR(result.x[0], 1.0, 1e-2);
  EXPECT_NEAR(result.x[1], -2.0, 1e-2);
}

TEST(NelderMeadTest, MinimizesRosenbrockReasonably) {
  const Objective f = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  const OptimizeResult result = MinimizeNelderMead(f, {-1.2, 1.0}, 2000, 1e-12);
  EXPECT_LT(result.fval, 1e-3);
}

TEST(NelderMeadTest, ReportsEvaluations) {
  const Objective f = [](const std::vector<double>& x) { return x[0] * x[0]; };
  const OptimizeResult result = MinimizeNelderMead(f, {5.0}, 100);
  EXPECT_GT(result.evaluations, 2);
}

TEST(AdamTest, MinimizesQuadraticBowl) {
  const Objective f = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  const OptimizeResult result = MinimizeAdam(f, {0.0, 0.0}, 150);
  EXPECT_NEAR(result.fval, 0.0, 1e-2);
  EXPECT_NEAR(result.x[0], 1.0, 0.2);
  EXPECT_NEAR(result.x[1], -2.0, 0.2);
}

TEST(AdamTest, GradientEvaluationCountPerIteration) {
  int evaluations = 0;
  const Objective f = [&evaluations](const std::vector<double>& x) {
    ++evaluations;
    return x[0] * x[0];
  };
  const OptimizeResult result = MinimizeAdam(f, {3.0}, 10);
  // 1 initial + per iteration (2 gradient probes + 1 step evaluation).
  EXPECT_EQ(result.evaluations, 1 + 10 * 3);
  EXPECT_EQ(evaluations, result.evaluations);
}

TEST(SpsaTest, MinimizesQuadratic) {
  const Objective f = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  const OptimizeResult result = MinimizeSpsa(f, {2.0, -3.0}, 500, 7);
  EXPECT_LT(result.fval, 0.5);
}

TEST(OptimizerTest, FixedStepSizesMatchPinnedOutputs) {
  // Golden results of the optimizers' fixed step constants (Nelder-Mead's
  // initial simplex step, SPSA's gains a and c, Adam's learning rate and
  // finite-difference step), in hexfloat.
  const Objective f = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + 3.0 * (x[1] + 2.0) * (x[1] + 2.0) +
           x[0] * x[1];
  };
  std::ostringstream pinned;
  pinned << std::hexfloat;
  for (const OptimizeResult& result :
       {MinimizeNelderMead(f, {0.0, 0.0}, 30), MinimizeSpsa(f, {0.0, 0.0}, 30, 7),
        MinimizeAdam(f, {0.0, 0.0}, 30)}) {
    pinned << result.fval << ' ' << result.x[0] << ' ' << result.x[1] << ' '
           << result.evaluations << " | ";
  }
  EXPECT_EQ(pinned.str(),
            "-0x1.ae8ba15ad24ccp+1 0x1.17454c437ccp+1 -0x1.2e8369423bp+1 57 | "
            "-0x1.7d865277ddbe4p+1 0x1.895fce998f20ep+0 "
            "-0x1.1e08b79939dfbp+1 62 | "
            "-0x1.ae5d4cd848ecap+1 0x1.1bc02779770a2p+1 "
            "-0x1.2e074a851b0bdp+1 151 | ");
}

// --- End-to-end hybrid solves -------------------------------------------------

QuboModel SmallMqoLikeQubo() {
  // Two groups of two variables; exactly one per group should be 1.
  QuboBuilder qubo(4);
  const double wl = 10.0;
  const double wm = 25.0;
  for (int i = 0; i < 4; ++i) qubo.AddLinear(i, -wl);
  qubo.AddLinear(0, 3.0);
  qubo.AddLinear(1, 5.0);
  qubo.AddLinear(2, 2.0);
  qubo.AddLinear(3, 6.0);
  qubo.AddQuadratic(0, 1, wm);
  qubo.AddQuadratic(2, 3, wm);
  qubo.AddQuadratic(1, 2, -1.5);  // saving
  return std::move(qubo).Build();
}

TEST(VariationalSolverTest, QaoaFindsGroundStateOfSmallQubo) {
  const QuboModel qubo = SmallMqoLikeQubo();
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  VariationalOptions options;
  options.max_iterations = 200;
  options.shots = 2048;
  options.seed = 3;
  const VariationalResult result = TrySolveQuboWithQaoa(qubo, options).value();
  EXPECT_NEAR(result.best_energy, exact.best_energy, 1e-6);
}

TEST(VariationalSolverTest, VqeFindsGroundStateOfSmallQubo) {
  const QuboModel qubo = SmallMqoLikeQubo();
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  VariationalOptions options;
  options.max_iterations = 400;
  options.shots = 2048;
  options.seed = 5;
  const VariationalResult result = TrySolveQuboWithVqe(qubo, options).value();
  EXPECT_NEAR(result.best_energy, exact.best_energy, 1e-6);
}

TEST(VariationalSolverTest, VqeMatchesPinnedOutputs) {
  // Golden expectation of VQE with the fixed full-entanglement ansatz.
  VariationalOptions options;
  options.max_iterations = 40;
  options.seed = 3;
  const VariationalResult result =
      TrySolveQuboWithVqe(SmallMqoLikeQubo(), options).value();
  std::ostringstream pinned;
  pinned << std::hexfloat << result.expectation << ' ' << result.evaluations;
  EXPECT_EQ(pinned.str(), "-0x1.83b68d76b1dfdp+2 65");
}

TEST(VariationalSolverTest, ExpectationIsUpperBoundOnGroundEnergy) {
  // The variational principle (Eq. 15).
  const QuboModel qubo = SmallMqoLikeQubo();
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  VariationalOptions options;
  options.max_iterations = 50;
  const VariationalResult qaoa = TrySolveQuboWithQaoa(qubo, options).value();
  const VariationalResult vqe = TrySolveQuboWithVqe(qubo, options).value();
  EXPECT_GE(qaoa.expectation, exact.best_energy - 1e-9);
  EXPECT_GE(vqe.expectation, exact.best_energy - 1e-9);
}

TEST(VariationalSolverTest, QaoaOptimalCircuitHasBoundAngles) {
  const QuboModel qubo = SmallMqoLikeQubo();
  VariationalOptions options;
  options.max_iterations = 100;
  const VariationalResult result = TrySolveQuboWithQaoa(qubo, options).value();
  EXPECT_GT(result.optimal_circuit.NumGates(), 0);
  EXPECT_EQ(result.optimal_circuit.NumQubits(), 4);
  EXPECT_GT(result.evaluations, 0);
}

TEST(VariationalSolverTest, AdamBackendSolvesSmallQubo) {
  const QuboModel qubo = SmallMqoLikeQubo();
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  VariationalOptions options;
  options.optimizer = OuterOptimizer::kAdam;
  options.max_iterations = 200;
  options.shots = 2048;
  options.seed = 13;
  const VariationalResult result = TrySolveQuboWithQaoa(qubo, options).value();
  EXPECT_NEAR(result.best_energy, exact.best_energy, 1e-6);
}

TEST(VariationalSolverTest, SpsaBackendAlsoSolves) {
  const QuboModel qubo = SmallMqoLikeQubo();
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  VariationalOptions options;
  options.optimizer = OuterOptimizer::kSpsa;
  options.max_iterations = 300;
  options.shots = 4096;
  options.seed = 11;
  const VariationalResult result = TrySolveQuboWithQaoa(qubo, options).value();
  // SPSA is noisier; accept near-optimal with sampling.
  EXPECT_LE(result.best_energy, exact.best_energy + 1.5);
}

}  // namespace
}  // namespace qopt
