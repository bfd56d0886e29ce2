#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/device_model.h"
#include "core/quantum_optimizer.h"
#include "core/resource_estimator.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/conversions.h"
#include "transpile/ibm_topologies.h"
#include "variational/qaoa.h"
#include "variational/vqe_ansatz.h"

namespace qopt {
namespace {

// --- Device models (Eq. 36/37/55) ------------------------------------------

TEST(DeviceModelTest, MumbaiMaxDepthIs248) {
  EXPECT_EQ(MumbaiDevice().MaxReliableDepth(), 248);
}

TEST(DeviceModelTest, BrooklynMaxDepthIs178) {
  EXPECT_EQ(BrooklynDevice().MaxReliableDepth(), 178);
}

TEST(DeviceModelTest, BrooklynThresholdRoughly28PercentBelowMumbai) {
  const double ratio =
      1.0 - static_cast<double>(BrooklynDevice().MaxReliableDepth()) /
                MumbaiDevice().MaxReliableDepth();
  EXPECT_NEAR(ratio, 0.28, 0.01);  // "approximately 28% smaller"
}

TEST(DeviceModelTest, DecoherenceProbabilityAtCoherenceTime) {
  const DeviceModel mumbai = MumbaiDevice();
  EXPECT_DOUBLE_EQ(mumbai.DecoherenceErrorProbability(0), 0.0);
  // At the threshold depth the error probability approaches 1 - 1/e.
  const double p =
      mumbai.DecoherenceErrorProbability(mumbai.MaxReliableDepth());
  EXPECT_NEAR(p, 1.0 - std::exp(-1.0), 0.01);
}

// --- Resource estimator -------------------------------------------------------

TEST(ResourceEstimatorTest, MqoEstimateShape) {
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 4;
  gen.seed = 1;
  const MqoProblem problem = GenerateMqoProblem(gen);
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(problem);
  GateEstimateOptions options;
  options.transpile_trials = 5;
  const GateResourceEstimate estimate =
      EstimateGateResources(encoding.qubo, MakeMumbai27(), MumbaiDevice(),
                            options)
          .value();
  EXPECT_EQ(estimate.logical_qubits, 12);
  EXPECT_GT(estimate.quadratic_terms, 0);
  EXPECT_GT(estimate.qaoa_depth_ideal, 0);
  EXPECT_GT(estimate.vqe_depth_ideal, 0);
  EXPECT_GE(estimate.qaoa_depth_device, estimate.qaoa_depth_ideal);
  EXPECT_GE(estimate.vqe_depth_device, estimate.vqe_depth_ideal);
  EXPECT_EQ(estimate.max_reliable_depth, 248);
}

TEST(ResourceEstimatorTest, OversizedProblemHasNoDeviceDepth) {
  QuboBuilder qubo(40);  // more than Mumbai's 27 qubits
  for (int i = 0; i + 1 < 40; ++i) qubo.AddQuadratic(i, i + 1, 1.0);
  const GateResourceEstimate estimate =
      EstimateGateResources(std::move(qubo).Build(), MakeMumbai27(),
                            MumbaiDevice())
          .value();
  EXPECT_EQ(estimate.qaoa_depth_device, -1.0);
  EXPECT_FALSE(estimate.qaoa_within_coherence);
}

TEST(ResourceEstimatorTest, TemplateGateCountsMatchBuiltCircuits) {
  Rng rng(5);
  for (int n = 1; n <= 9; ++n) {
    for (int reps = 1; reps <= 3; ++reps) {
      QuboBuilder terms(n);
      for (int i = 0; i < n; ++i) {
        terms.AddLinear(i, rng.NextDouble(-2.0, 2.0));
        for (int j = i + 1; j < n; ++j) {
          if (rng.NextDouble() < 0.5) {
            terms.AddQuadratic(i, j, rng.NextDouble(-2.0, 2.0));
          }
        }
      }
      const QuboModel qubo = std::move(terms).Build();
      EXPECT_EQ(QaoaTemplateGateCount(n, qubo.NumQuadraticTerms(), reps),
                BuildQaoaTemplate(QuboToIsing(qubo), reps).NumGates())
          << "n=" << n << " reps=" << reps;
    }
    // The VQE template is the fixed 3-rep full-entanglement ansatz.
    EXPECT_EQ(VqeTemplateGateCount(n), BuildVqeTemplate(n).NumGates())
        << "n=" << n;
    EXPECT_EQ(VqeTemplateGateCount(n), 4 * n + 3 * n * (n - 1) / 2)
        << "n=" << n;
  }
  // A zero Ising field emits no RZ, so the QAOA count is then a bound:
  // x0 x1 - x0/2 - x1/2 has h = 0 on both spins.
  QuboBuilder zero_fields(2);
  zero_fields.AddQuadratic(0, 1, 1.0);
  zero_fields.AddLinear(0, -0.5);
  zero_fields.AddLinear(1, -0.5);
  EXPECT_EQ(
      BuildQaoaTemplate(QuboToIsing(std::move(zero_fields).Build())).NumGates(),
      5);
  EXPECT_EQ(QaoaTemplateGateCount(2, 1), 7);
}

TEST(ResourceEstimatorTest, OversizedTemplateIsRefusedBeforeBuilding) {
  // 3 400 qubits: the VQE template alone has 3 * 3400 * 3399 / 2 + 4 * 3400
  // = 17 348 500 gates, past kMaxTemplateGates (2^24); building it would
  // take about 1.5 GB.
  const QuboModel qubo = QuboBuilder(3400).Build();
  ASSERT_GT(VqeTemplateGateCount(3400), kMaxTemplateGates);
  const StatusOr<GateResourceEstimate> estimate =
      EstimateGateResources(qubo, MakeMumbai27(), MumbaiDevice());
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(estimate.status().message(),
            "the VQE template has 17348500 gates, more than the 16777216 a "
            "template may have");
  EXPECT_TRUE(CheckTemplateGates("QAOA", kMaxTemplateGates).ok());
}

// --- Facade: MQO ------------------------------------------------------------------

TEST(QuantumOptimizerTest, BackendNames) {
  EXPECT_EQ(BackendName(Backend::kExact), "exact");
  EXPECT_EQ(BackendName(Backend::kQaoa), "qaoa");
  EXPECT_EQ(BackendName(Backend::kAdiabatic), "adiabatic");
  EXPECT_EQ(BackendName(Backend::kAnnealerEmulation), "annealer");
}

TEST(QuantumOptimizerTest, MqoExactBackendSolvesPaperExample) {
  OptimizerOptions options;
  options.backend = Backend::kExact;
  const MqoSolveReport report =
      TrySolveMqo(MakePaperExampleMqo(), options).value();
  ASSERT_TRUE(report.valid);
  EXPECT_DOUBLE_EQ(report.solution.cost, 21.0);
  EXPECT_EQ(report.qubits, 8);
}

TEST(QuantumOptimizerTest, MqoSimulatedAnnealingBackend) {
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 20;
  options.seed = 3;
  const MqoSolveReport report =
      TrySolveMqo(MakePaperExampleMqo(), options).value();
  ASSERT_TRUE(report.valid);
  EXPECT_DOUBLE_EQ(report.solution.cost, 21.0);
}

TEST(QuantumOptimizerTest, MqoQaoaBackend) {
  OptimizerOptions options;
  options.backend = Backend::kQaoa;
  options.variational.max_iterations = 150;
  options.variational.shots = 4096;
  options.seed = 7;
  const MqoSolveReport report =
      TrySolveMqo(MakePaperExampleMqo(), options).value();
  ASSERT_TRUE(report.valid);
  EXPECT_DOUBLE_EQ(report.solution.cost, 21.0);
}

TEST(QuantumOptimizerTest, MqoAdiabaticBackend) {
  OptimizerOptions options;
  options.backend = Backend::kAdiabatic;
  options.adiabatic.total_time = 40.0;
  options.adiabatic.steps = 400;
  options.adiabatic.shots = 2048;
  options.seed = 9;
  const MqoSolveReport report =
      TrySolveMqo(MakePaperExampleMqo(), options).value();
  ASSERT_TRUE(report.valid);
  EXPECT_DOUBLE_EQ(report.solution.cost, 21.0);
}

TEST(QuantumOptimizerTest, MqoAnnealerEmulationBackend) {
  OptimizerOptions options;
  options.backend = Backend::kAnnealerEmulation;
  options.pegasus_m = 3;
  options.embedded.anneal.num_reads = 30;
  options.embedded.anneal.num_sweeps = 800;
  options.seed = 5;
  const MqoSolveReport report =
      TrySolveMqo(MakePaperExampleMqo(), options).value();
  ASSERT_TRUE(report.valid);
  EXPECT_DOUBLE_EQ(report.solution.cost, 21.0);
}

// --- Facade: join ordering -----------------------------------------------------------

TEST(QuantumOptimizerTest, JoinOrderSaBackendOnSection612Example) {
  QueryGraph graph({10.0, 10.0, 10.0});
  graph.AddPredicate(0, 1, 0.1);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0};
  encoder.safe_slack_bounds = true;
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 60;
  options.anneal.num_sweeps = 2000;
  options.seed = 11;
  const JoinOrderSolveReport report =
      TrySolveJoinOrder(graph, encoder, options).value();
  // 24 qubits with the paper's bounds; the safe slack bound costs one more.
  EXPECT_EQ(report.qubits, 25);
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(IsValidJoinOrder(graph, report.solution.order));
}

TEST(QuantumOptimizerTest, JoinOrderExactBackendFindsOptimum) {
  QueryGraph graph({10.0, 10.0, 10.0});
  graph.AddPredicate(0, 1, 0.1);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0};
  encoder.safe_slack_bounds = true;
  OptimizerOptions options;
  options.backend = Backend::kExact;
  const JoinOrderSolveReport report =
      TrySolveJoinOrder(graph, encoder, options).value();
  ASSERT_TRUE(report.valid);
  // Optimal order joins A and B first.
  EXPECT_TRUE((report.solution.order[0] == 0 && report.solution.order[1] == 1) ||
              (report.solution.order[0] == 1 && report.solution.order[1] == 0));
}

}  // namespace
}  // namespace qopt
