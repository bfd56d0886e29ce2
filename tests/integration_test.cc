// End-to-end pipelines and the qualitative "shape" claims of the paper's
// evaluation, verified at test scale.
#include <gtest/gtest.h>

#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "core/device_model.h"
#include "core/quantum_optimizer.h"
#include "core/resource_estimator.h"
#include "bilp/bilp_to_qubo.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "mqo/mqo_baselines.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/conversions.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"
#include "variational/vqe_ansatz.h"

namespace qopt {
namespace {

TEST(IntegrationTest, MqoQaoaPipelineMatchesExhaustiveOptimum) {
  MqoGeneratorOptions gen;
  gen.num_queries = 2;
  gen.plans_per_query = 3;
  gen.saving_density = 0.5;
  gen.seed = 21;
  const MqoProblem problem = GenerateMqoProblem(gen);
  const MqoSolution exact = SolveMqoExhaustive(problem);
  OptimizerOptions options;
  options.backend = Backend::kQaoa;
  options.variational.max_iterations = 150;
  options.variational.shots = 2048;
  options.seed = 23;
  const MqoSolveReport report = TrySolveMqo(problem, options).value();
  ASSERT_TRUE(report.valid);
  EXPECT_NEAR(report.solution.cost, exact.cost, 1e-9);
}

TEST(IntegrationTest, MqoVqePipelineProducesValidSolution) {
  MqoGeneratorOptions gen;
  gen.num_queries = 2;
  gen.plans_per_query = 3;
  gen.seed = 31;
  const MqoProblem problem = GenerateMqoProblem(gen);
  OptimizerOptions options;
  options.backend = Backend::kVqe;
  options.variational.max_iterations = 250;
  options.variational.shots = 2048;
  options.seed = 33;
  const MqoSolveReport report = TrySolveMqo(problem, options).value();
  EXPECT_TRUE(report.valid);
}

TEST(IntegrationTest, JoinOrderAnnealerEmulationPipeline) {
  QueryGraph graph({10.0, 10.0, 10.0});
  graph.AddPredicate(0, 1, 0.1);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0};
  encoder.safe_slack_bounds = true;
  OptimizerOptions options;
  options.backend = Backend::kAnnealerEmulation;
  options.pegasus_m = 4;
  options.embedded.anneal.num_reads = 100;
  options.embedded.anneal.num_sweeps = 4000;
  options.seed = 5;
  const JoinOrderSolveReport report =
      TrySolveJoinOrder(graph, encoder, options).value();
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(IsValidJoinOrder(graph, report.solution.order));
}

// --- Shape claims -------------------------------------------------------------

TEST(ShapeTest, QaoaDepthGrowsWithPlansPerQuery) {
  // Fig. 8: at a fixed total number of plans, more PPQ -> denser E_M
  // cliques -> deeper QAOA circuits.
  auto mean_ideal_depth = [](int queries, int ppq) {
    double total = 0.0;
    const int instances = 5;
    for (int i = 0; i < instances; ++i) {
      MqoGeneratorOptions gen;
      gen.num_queries = queries;
      gen.plans_per_query = ppq;
      gen.saving_density = 0.3;
      gen.seed = 100 + i;
      const MqoQuboEncoding encoding =
          EncodeMqoAsQubo(GenerateMqoProblem(gen));
      total += BuildQaoaTemplate(QuboToIsing(encoding.qubo)).Depth();
    }
    return total / instances;
  };
  const double depth_4ppq = mean_ideal_depth(4, 4);   // 16 plans
  const double depth_8ppq = mean_ideal_depth(2, 8);   // 16 plans
  EXPECT_GT(depth_8ppq, depth_4ppq);
}

TEST(ShapeTest, VqeTranspilationOverheadExceedsQaoaOverhead) {
  // Fig. 9: the full-entanglement VQE ansatz suffers far more from the
  // sparse heavy-hex topology than QAOA does.
  MqoGeneratorOptions gen;
  gen.num_queries = 4;
  gen.plans_per_query = 4;
  gen.seed = 7;
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
  GateEstimateOptions options;
  options.transpile_trials = 5;
  const GateResourceEstimate estimate =
      EstimateGateResources(encoding.qubo, MakeMumbai27(), MumbaiDevice(),
                            options)
          .value();
  const double vqe_overhead =
      estimate.vqe_depth_device / estimate.vqe_depth_ideal;
  const double qaoa_overhead =
      estimate.qaoa_depth_device / estimate.qaoa_depth_ideal;
  EXPECT_GT(vqe_overhead, qaoa_overhead);
}

TEST(ShapeTest, VqeIdealDepthIndependentOfQuboDensity) {
  // Sec. 5.3.2: VQE depth depends only on the number of qubits.
  const QuantumCircuit a = BuildVqeTemplate(10);
  const QuantumCircuit b = BuildVqeTemplate(10);
  EXPECT_EQ(a.Depth(), b.Depth());
  EXPECT_GT(BuildVqeTemplate(14).Depth(), a.Depth());
}

TEST(ShapeTest, PrecisionStrategyYieldsMoreQuadraticTerms) {
  // Table 4: at equal qubit counts, lowering omega (problem 3) produces
  // far more quadratic terms than adding predicates (problem 1).
  QueryGraph graph1({10.0, 10.0, 10.0});
  graph1.AddPredicate(0, 1, 0.5);
  graph1.AddPredicate(1, 2, 0.5);
  graph1.AddPredicate(0, 2, 0.5);
  JoinOrderEncoderOptions options1;
  options1.thresholds = {10.0};
  const JoinOrderEncoding enc1 = EncodeJoinOrderAsBilp(graph1, options1);

  QueryGraph graph3({10.0, 10.0, 10.0});
  JoinOrderEncoderOptions options3;
  options3.thresholds = {10.0};
  options3.precision_decimals = 3;
  const JoinOrderEncoding enc3 = EncodeJoinOrderAsBilp(graph3, options3);

  ASSERT_EQ(enc1.bilp.NumVariables(), 30);  // Table 4 qubit counts
  ASSERT_EQ(enc3.bilp.NumVariables(), 30);
  const int terms1 = EncodeBilpAsQubo(enc1.bilp).qubo.NumQuadraticTerms();
  const int terms3 = EncodeBilpAsQubo(enc3.bilp).qubo.NumQuadraticTerms();
  EXPECT_GT(terms3, terms1);
}

TEST(ShapeTest, QubitScalingSuperlinearInRelations) {
  // Fig. 11: the qubit count grows at least quadratically with relations.
  const auto t10 = CountJoinOrderQubits(10, 9, 1, 1.0);
  const auto t20 = CountJoinOrderQubits(20, 19, 1, 1.0);
  const auto t40 = CountJoinOrderQubits(40, 39, 1, 1.0);
  EXPECT_GT(t20.total, 3 * t10.total);
  EXPECT_GT(t40.total, 3 * t20.total);
}

TEST(ShapeTest, EmbeddingNeedsMultiplePhysicalQubitsPerLogical) {
  // Fig. 14: chains make the physical qubit count a small multiple of the
  // logical one.
  QueryGraph graph({10.0, 10.0, 10.0, 10.0});
  graph.AddPredicate(0, 1, 0.5);
  graph.AddPredicate(1, 2, 0.5);
  graph.AddPredicate(2, 3, 0.5);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0};
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, encoder);
  const BilpQuboEncoding qubo = EncodeBilpAsQubo(encoding.bilp);
  const SimpleGraph source = qubo.qubo.InteractionGraph();
  EmbedOptions options;
  options.seed = 3;
  const auto embedding =
      TryFindMinorEmbedding(source, MakePegasus(6), options);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  EXPECT_GT(embedding->NumPhysicalQubits(), source.NumVertices());
  EXPECT_LT(embedding->MeanChainLength(), 8.0);
}

TEST(ShapeTest, MumbaiRoutingInflatesDepth) {
  // Fig. 8 right vs left: the state-of-the-art topology increases QAOA
  // depth substantially over the optimal topology.
  MqoGeneratorOptions gen;
  gen.num_queries = 5;
  gen.plans_per_query = 4;
  gen.seed = 77;
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
  const QuantumCircuit qaoa = BuildQaoaTemplate(QuboToIsing(encoding.qubo));
  const CouplingMap full = MakeFullyConnected(20);
  const CouplingMap mumbai = MakeMumbai27();
  const double ideal = TranspiledDepthStats(qaoa, full, 1).mean;
  const double device = TranspiledDepthStats(qaoa, mumbai, 5).mean;
  EXPECT_GT(device, 1.5 * ideal);
}

}  // namespace
}  // namespace qopt
