// Tests for the extension modules: the MQO -> BILP encoding, OpenQASM
// export and circuit reliability estimation.
#include <gtest/gtest.h>

#include "bilp/bilp_branch_and_bound.h"
#include "bilp/bilp_to_qubo.h"
#include "circuit/qasm_exporter.h"
#include "core/device_model.h"
#include "core/reliability.h"
#include "mqo/mqo_baselines.h"
#include "mqo/mqo_bilp_encoder.h"
#include "mqo/mqo_generator.h"
#include "qubo/brute_force_solver.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/vqe_ansatz.h"

namespace qopt {
namespace {

// --- MQO via BILP ----------------------------------------------------------------

TEST(MqoBilpTest, BranchAndBoundMatchesExhaustiveOnPaperExample) {
  const MqoProblem example = MakePaperExampleMqo();
  const MqoBilpEncoding encoding = EncodeMqoAsBilp(example);
  const auto solution = SolveBilpBranchAndBound(encoding.bilp);
  ASSERT_TRUE(solution.has_value());
  // BILP objective = MQO cost + sum of savings.
  EXPECT_NEAR(solution->objective - encoding.objective_offset, 21.0, 1e-9);
  std::vector<int> selection;
  ASSERT_TRUE(DecodeMqoBilp(encoding, example, solution->bits, &selection));
  EXPECT_NEAR(example.SelectionCost(selection), 21.0, 1e-9);
}

class MqoBilpParamTest : public ::testing::TestWithParam<int> {};

TEST_P(MqoBilpParamTest, BnbMatchesExhaustiveOnRandomInstances) {
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 3;
  gen.saving_density = 0.3;
  gen.seed = GetParam() + 500;
  const MqoProblem problem = GenerateMqoProblem(gen);
  const MqoSolution exact = SolveMqoExhaustive(problem);
  const MqoBilpEncoding encoding = EncodeMqoAsBilp(problem);
  const auto solution = SolveBilpBranchAndBound(encoding.bilp);
  ASSERT_TRUE(solution.has_value());
  std::vector<int> selection;
  ASSERT_TRUE(DecodeMqoBilp(encoding, problem, solution->bits, &selection));
  EXPECT_NEAR(problem.SelectionCost(selection), exact.cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MqoBilpParamTest,
                         ::testing::Range(0, 6));

TEST(MqoBilpTest, QuboGroundStateDecodesOptimum) {
  MqoGeneratorOptions gen;
  gen.num_queries = 2;
  gen.plans_per_query = 2;
  gen.saving_density = 0.5;
  gen.seed = 9;
  const MqoProblem problem = GenerateMqoProblem(gen);
  const MqoBilpEncoding encoding = EncodeMqoAsBilp(problem);
  ASSERT_LE(encoding.bilp.NumVariables(), 26);
  const BilpQuboEncoding qubo = EncodeBilpAsQubo(encoding.bilp);
  const BruteForceResult ground = TrySolveQuboBruteForce(qubo.qubo).value();
  EXPECT_TRUE(encoding.bilp.IsFeasible(ground.best_bits));
  std::vector<int> selection;
  ASSERT_TRUE(DecodeMqoBilp(encoding, problem, ground.best_bits, &selection));
  EXPECT_NEAR(problem.SelectionCost(selection),
              SolveMqoExhaustive(problem).cost, 1e-9);
}

TEST(MqoBilpTest, NeedsMoreQubitsThanDirectEncoding) {
  // The direct [9] encoding uses one qubit per plan; the BILP route pays
  // for linearization and slack variables — the ablation's tradeoff.
  const MqoProblem example = MakePaperExampleMqo();
  const MqoBilpEncoding encoding = EncodeMqoAsBilp(example);
  EXPECT_GT(encoding.bilp.NumVariables(), example.NumPlans());
  // x per plan + (y, z, 3 slacks) per saving.
  EXPECT_EQ(encoding.bilp.NumVariables(),
            example.NumPlans() + 5 * example.NumSavings());
}

// --- OpenQASM export -----------------------------------------------------------

TEST(QasmExporterTest, HeaderAndRegisters) {
  QuantumCircuit c(3);
  c.H(0);
  const std::string qasm = ToQasm2(c);
  EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(qasm.find("include \"qelib1.inc\";"), std::string::npos);
  EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
  EXPECT_EQ(qasm.find("creg"), std::string::npos);
  EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
}

TEST(QasmExporterTest, MeasureAllAppendsClassicalRegister) {
  QuantumCircuit c(2);
  c.Cx(0, 1);
  const std::string qasm = ToQasm2(c, /*measure_all=*/true);
  EXPECT_NE(qasm.find("creg c[2];"), std::string::npos);
  EXPECT_NE(qasm.find("measure q[1] -> c[1];"), std::string::npos);
}

TEST(QasmExporterTest, RzzEmitsDecomposition) {
  QuantumCircuit c(2);
  c.Rzz(0, 1, 0.5);
  const std::string qasm = ToQasm2(c);
  EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
  EXPECT_NE(qasm.find("rz(0.5) q[1];"), std::string::npos);
  // Two CX around the RZ.
  std::size_t first = qasm.find("cx q[0],q[1];");
  std::size_t second = qasm.find("cx q[0],q[1];", first + 1);
  EXPECT_NE(second, std::string::npos);
}

TEST(QasmExporterTest, AllGateKindsSerializable) {
  QuantumCircuit c(2);
  c.H(0);
  c.X(0);
  c.Y(0);
  c.Z(0);
  c.Sx(0);
  c.Rx(0, 0.1);
  c.Ry(0, 0.2);
  c.Rz(0, 0.3);
  c.Cx(0, 1);
  c.Cz(0, 1);
  c.Rzz(0, 1, 0.4);
  c.Swap(0, 1);
  const std::string qasm = ToQasm2(c);
  for (const char* mnemonic :
       {"h ", "x ", "y ", "z ", "sx ", "rx(", "ry(", "rz(", "cx ", "cz ",
        "swap "}) {
    EXPECT_NE(qasm.find(mnemonic), std::string::npos) << mnemonic;
  }
}

// --- Reliability estimation ------------------------------------------------------

TEST(ReliabilityTest, EmptyCircuitIsPerfectExceptReadout) {
  const QuantumCircuit c(2);
  const ReliabilityEstimate estimate =
      EstimateCircuitReliability(MumbaiDevice(), c);
  EXPECT_DOUBLE_EQ(estimate.gate_error, 0.0);
  EXPECT_DOUBLE_EQ(estimate.decoherence_error, 0.0);
  EXPECT_GT(estimate.readout_error, 0.0);
  EXPECT_TRUE(estimate.within_coherence);
}

TEST(ReliabilityTest, MoreGatesLowerSuccess) {
  QuantumCircuit shallow(2);
  shallow.Cx(0, 1);
  QuantumCircuit deep(2);
  for (int i = 0; i < 50; ++i) deep.Cx(0, 1);
  const DeviceModel device = MumbaiDevice();
  EXPECT_GT(EstimateCircuitReliability(device, shallow).success_probability,
            EstimateCircuitReliability(device, deep).success_probability);
}

TEST(ReliabilityTest, CoherenceFlagFollowsDepthBudget) {
  const DeviceModel device = BrooklynDevice();
  QuantumCircuit over(1);
  for (int i = 0; i < device.MaxReliableDepth() + 1; ++i) over.Sx(0);
  EXPECT_FALSE(EstimateCircuitReliability(device, over).within_coherence);
  QuantumCircuit under(1);
  for (int i = 0; i < device.MaxReliableDepth() - 1; ++i) under.Sx(0);
  EXPECT_TRUE(EstimateCircuitReliability(device, under).within_coherence);
}

TEST(ReliabilityTest, TwoQubitGatesCostMoreThanSingle) {
  QuantumCircuit single(2);
  for (int i = 0; i < 10; ++i) single.Sx(0);
  QuantumCircuit twoq(2);
  for (int i = 0; i < 10; ++i) twoq.Cx(0, 1);
  const DeviceModel device = MumbaiDevice();
  EXPECT_GT(EstimateCircuitReliability(device, single).success_probability,
            EstimateCircuitReliability(device, twoq).success_probability);
}

TEST(ReliabilityTest, TranspiledMqoCircuitRealism) {
  // A routed 12-qubit QAOA circuit on Mumbai should have a low-but-nonzero
  // success probability — the regime the paper calls borderline.
  const QuantumCircuit vqe = BuildVqeTemplate(12, 3);
  const TranspileResult transpiled =
      TryTranspile(vqe, MakeMumbai27(), {}).value();
  const ReliabilityEstimate estimate =
      EstimateCircuitReliability(MumbaiDevice(), transpiled.circuit);
  EXPECT_GT(estimate.gate_error, 0.5);  // hundreds of CX gates
  EXPECT_LT(estimate.success_probability, 0.5);
}

}  // namespace
}  // namespace qopt
