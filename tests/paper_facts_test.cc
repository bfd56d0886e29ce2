// Assertions that pin statements made in the paper's text directly to
// library behaviour, plus a few cross-module consistency properties.
#include <gtest/gtest.h>

#include <cmath>

#include "anneal/chimera.h"
#include "anneal/pegasus.h"
#include "anneal/simulated_annealer.h"
#include "bilp/bilp_branch_and_bound.h"
#include "bilp/bilp_to_qubo.h"
#include "circuit/statevector.h"
#include "common/random.h"
#include "core/device_model.h"
#include "joinorder/join_order_baselines.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/brute_force_solver.h"
#include "qubo/conversions.h"
#include "variational/qaoa.h"
#include "variational/vqe_ansatz.h"

namespace qopt {
namespace {

// --- Ch. 1 / Sec. 3.6: hardware facts the paper quotes ---------------------

TEST(PaperFactsTest, AdvantageOffersOver5000Qubits) {
  // "the D-Wave Advantage system offers over 5,000 qubits"
  EXPECT_GT(MakePegasus(16).NumVertices(), 5000);
}

TEST(PaperFactsTest, LargestIbmqSystemHas65Qubits) {
  // "the largest available IBM-Q system ... features 65 qubits"
  EXPECT_EQ(BrooklynDevice().num_qubits, 65);
}

TEST(PaperFactsTest, PegasusHas15CouplersPerQubit) {
  // "In the Pegasus topology, 15 couplers exist per qubit" (Sec. 3.6.2)
  EXPECT_EQ(MakePegasus(8).MaxDegree(), 15);
}

TEST(PaperFactsTest, ChimeraHasSixCouplersPerQubit) {
  // "each qubit is connected to at most six other qubits in a Chimera
  // topology" (Sec. 3.6.2)
  EXPECT_EQ(MakeChimera(4, 4, 4).MaxDegree(), 6);
}

TEST(PaperFactsTest, DWave2xHasOver1000PhysicalQubits) {
  // "The D-Wave 2X system used in [9] has over 1,000 physical qubits"
  EXPECT_GT(MakeChimera(12, 12, 4).NumVertices(), 1000);
}

// --- Sec. 3.4.2: QAOA structure ---------------------------------------------

TEST(PaperFactsTest, QaoaDepthBoundedByTermsTimesReps) {
  // "an upper bound for the circuit depth is given by mp + p" — in gate
  // layers before decomposition, counting the initial H layer separately.
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 4;
  gen.seed = 5;
  const IsingModel ising =
      QuboToIsing(EncodeMqoAsQubo(GenerateMqoProblem(gen)).qubo);
  int m = static_cast<int>(ising.Couplings().size());
  for (int i = 0; i < ising.NumSpins(); ++i) {
    if (ising.Field(i) != 0.0) ++m;
  }
  for (int p = 1; p <= 3; ++p) {
    const QuantumCircuit circuit = BuildQaoaTemplate(ising, p);
    EXPECT_LE(circuit.Depth(), m * p + p + 1) << "p=" << p;
  }
}

TEST(PaperFactsTest, VqeParameterCountIndependentOfProblemDensity) {
  // Sec. 5.3.2: "the number of quadratic terms does not impact the
  // circuit depth for the state preparation of the VQE algorithm".
  EXPECT_EQ(BuildVqeTemplate(10, 3).Depth(), BuildVqeTemplate(10, 3).Depth());
  EXPECT_EQ(RealAmplitudesNumParameters(10, 3), 40);
}

// --- Sec. 5.3.1: one qubit per plan ------------------------------------------

TEST(PaperFactsTest, MqoQubitCountEqualsPlanCount) {
  for (int queries : {2, 5, 9}) {
    MqoGeneratorOptions gen;
    gen.num_queries = queries;
    gen.plans_per_query = 6;
    gen.seed = queries;
    const MqoProblem problem = GenerateMqoProblem(gen);
    EXPECT_EQ(EncodeMqoAsQubo(problem).qubo.NumVariables(),
              problem.NumPlans());
  }
}

TEST(PaperFactsTest, MqoQuadraticTermsComeFromEmAndEs) {
  // Quadratic terms appear only in E_M (intra-query pairs) and E_S
  // (savings pairs) — Sec. 5.3.1.
  MqoGeneratorOptions gen;
  gen.num_queries = 4;
  gen.plans_per_query = 5;
  gen.saving_density = 0.25;
  gen.seed = 17;
  const MqoProblem problem = GenerateMqoProblem(gen);
  const int intra_query_pairs = 4 * (5 * 4 / 2);
  EXPECT_EQ(EncodeMqoAsQubo(problem).qubo.NumQuadraticTerms(),
            intra_query_pairs + problem.NumSavings());
}

// --- Sec. 6.3.1: counting formulas vs built models ---------------------------

class CountingGridTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CountingGridTest, FormulaMatchesConstructedModel) {
  const auto [relations, predicate_factor, thresholds] = GetParam();
  const int predicates = predicate_factor * (relations - 1);
  if (predicates > relations * (relations - 1) / 2) GTEST_SKIP();
  QueryGeneratorOptions gen;
  gen.num_relations = relations;
  gen.num_predicates = predicates;
  gen.seed = 3;
  const QueryGraph graph = GenerateRandomQuery(gen);
  JoinOrderEncoderOptions options;
  options.thresholds.clear();
  for (int r = 0; r < thresholds; ++r) {
    options.thresholds.push_back(10.0 * (r + 1));
  }
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
  const auto counts =
      CountJoinOrderQubits(relations, predicates, thresholds, 1.0, 10.0);
  EXPECT_EQ(encoding.bilp.NumVariables(), counts.total);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CountingGridTest,
    ::testing::Combine(::testing::Values(3, 5, 8, 12),
                       ::testing::Values(1, 2),
                       ::testing::Values(1, 3, 6)));

// --- Gate identities -----------------------------------------------------------

double StateDistance(const QuantumCircuit& a, const QuantumCircuit& b) {
  const auto sa = SimulateCircuit(a).Amplitudes();
  const auto sb = SimulateCircuit(b).Amplitudes();
  std::complex<double> inner = 0.0;
  for (std::size_t i = 0; i < sa.size(); ++i) inner += std::conj(sa[i]) * sb[i];
  return 1.0 - std::norm(inner);
}

TEST(GateIdentityTest, HZHEqualsX) {
  QuantumCircuit prep(1);
  prep.Ry(0, 0.7);
  QuantumCircuit hzh = prep;
  hzh.H(0);
  hzh.Z(0);
  hzh.H(0);
  QuantumCircuit x = prep;
  x.X(0);
  EXPECT_NEAR(StateDistance(hzh, x), 0.0, 1e-12);
}

TEST(GateIdentityTest, HXHEqualsZ) {
  QuantumCircuit prep(1);
  prep.Ry(0, 1.1);
  QuantumCircuit hxh = prep;
  hxh.H(0);
  hxh.X(0);
  hxh.H(0);
  QuantumCircuit z = prep;
  z.Z(0);
  EXPECT_NEAR(StateDistance(hxh, z), 0.0, 1e-12);
}

TEST(GateIdentityTest, SxSquaredEqualsX) {
  QuantumCircuit prep(1);
  prep.Ry(0, 0.4);
  QuantumCircuit sxsx = prep;
  sxsx.Sx(0);
  sxsx.Sx(0);
  QuantumCircuit x = prep;
  x.X(0);
  EXPECT_NEAR(StateDistance(sxsx, x), 0.0, 1e-12);
}

TEST(GateIdentityTest, DoubleSwapIsIdentity) {
  QuantumCircuit prep(2);
  prep.Ry(0, 0.5);
  prep.Ry(1, 1.3);
  prep.Cx(0, 1);
  QuantumCircuit twice = prep;
  twice.Swap(0, 1);
  twice.Swap(0, 1);
  EXPECT_NEAR(StateDistance(twice, prep), 0.0, 1e-12);
}

TEST(GateIdentityTest, CzOrderIrrelevant) {
  QuantumCircuit prep(2);
  prep.H(0);
  prep.H(1);
  QuantumCircuit ab = prep;
  ab.Cz(0, 1);
  QuantumCircuit ba = prep;
  ba.Cz(1, 0);
  EXPECT_NEAR(StateDistance(ab, ba), 0.0, 1e-12);
}

// --- Cross-module properties -----------------------------------------------------

TEST(CrossModuleTest, RelationRelabelingPreservesOptimalCost) {
  // Renaming relations must not change the optimal C_out.
  QueryGeneratorOptions gen;
  gen.num_relations = 6;
  gen.num_predicates = 7;
  gen.cardinality_min = 10.0;
  gen.cardinality_max = 10000.0;
  gen.selectivity_min = 0.01;
  gen.seed = 8;
  const QueryGraph graph = GenerateRandomQuery(gen);
  // Relabel r -> (r + 2) mod 6.
  std::vector<double> cards(6);
  for (int r = 0; r < 6; ++r) {
    cards[static_cast<std::size_t>((r + 2) % 6)] = graph.Cardinality(r);
  }
  QueryGraph relabeled(cards);
  for (const auto& p : graph.Predicates()) {
    relabeled.AddPredicate((p.rel1 + 2) % 6, (p.rel2 + 2) % 6, p.selectivity);
  }
  EXPECT_NEAR(SolveJoinOrderDp(graph).cost, SolveJoinOrderDp(relabeled).cost,
              SolveJoinOrderDp(graph).cost * 1e-12);
}

class RandomBilpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBilpTest, BranchAndBoundAgreesWithQuboGroundState) {
  // Random feasible BILPs: the exact B&B optimum and the brute-forced
  // QUBO ground state must coincide.
  Rng rng(GetParam() + 42);
  BilpProblem bilp;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    bilp.AddVariable("x", rng.NextDouble(0.0, 5.0));
  }
  // Three random "pick k of subset" constraints (always feasible since
  // k <= subset size).
  for (int c = 0; c < 3; ++c) {
    BilpProblem::Constraint constraint;
    for (int i = 0; i < n; ++i) {
      if (rng.NextBool(0.5)) constraint.terms.emplace_back(i, 1.0);
    }
    if (constraint.terms.empty()) constraint.terms.emplace_back(0, 1.0);
    constraint.rhs = static_cast<double>(
        1 + rng.NextUint64(constraint.terms.size()));
    bilp.AddConstraint(std::move(constraint));
  }
  const auto bnb = SolveBilpBranchAndBound(bilp);
  const BilpQuboEncoding encoding = EncodeBilpAsQubo(bilp);
  const BruteForceResult ground = TrySolveQuboBruteForce(encoding.qubo).value();
  if (!bnb.has_value()) {
    // Conflicting constraints can make the instance infeasible; the QUBO
    // ground state must then violate some constraint.
    EXPECT_FALSE(bilp.IsFeasible(ground.best_bits));
    return;
  }
  EXPECT_TRUE(bilp.IsFeasible(ground.best_bits));
  EXPECT_NEAR(bilp.ObjectiveValue(ground.best_bits), bnb->objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBilpTest, ::testing::Range(0, 10));

TEST(CrossModuleTest, SaRespectsBruteForceOnMediumProblems) {
  // 16-variable MQO-style QUBOs: SA with a generous budget finds the
  // exact ground state.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    MqoGeneratorOptions gen;
    gen.num_queries = 4;
    gen.plans_per_query = 4;
    gen.saving_density = 0.3;
    gen.seed = seed;
    const MqoQuboEncoding encoding =
        EncodeMqoAsQubo(GenerateMqoProblem(gen));
    AnnealOptions anneal;
    anneal.num_reads = 40;
    anneal.num_sweeps = 1500;
    anneal.seed = seed;
    EXPECT_NEAR(
        TrySolveQuboWithAnnealing(encoding.qubo, anneal).value().best_energy,
        TrySolveQuboBruteForce(encoding.qubo).value().best_energy, 1e-8);
  }
}

}  // namespace
}  // namespace qopt
