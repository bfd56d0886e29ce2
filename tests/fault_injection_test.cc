#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "anneal/simulated_annealer.h"
#include "common/status.h"
#include "core/quantum_optimizer.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/adiabatic.h"
#include "variational/variational_solver.h"

namespace qopt {
namespace {

/// Every test leaves the registry clean so ordering cannot leak faults.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Instance().DisarmAll(); }
};

QuboModel SmallQubo() {
  QuboBuilder qubo(4);
  qubo.AddLinear(0, 1.0);
  qubo.AddLinear(1, -2.0);
  qubo.AddQuadratic(0, 1, 1.5);
  qubo.AddQuadratic(1, 2, -0.5);
  qubo.AddQuadratic(2, 3, 2.0);
  return std::move(qubo).Build();
}

// --- Registry semantics -----------------------------------------------------

TEST_F(FaultInjectionTest, DisarmedSiteFiresNothing) {
  EXPECT_FALSE(FaultInjection::AnyArmed());
  EXPECT_TRUE(CheckFaultPoint("annealer.sweep").ok());
  EXPECT_EQ(FaultInjection::Instance().PassCount("annealer.sweep"), 0);
}

TEST_F(FaultInjectionTest, ArmedSiteFiresAfterNPassesForMTimes) {
  auto& registry = FaultInjection::Instance();
  registry.Arm("test.site", InternalError("boom"), /*after_n=*/2, /*times=*/2);
  EXPECT_TRUE(FaultInjection::AnyArmed());
  EXPECT_TRUE(registry.Fire("test.site").ok());   // pass 1
  EXPECT_TRUE(registry.Fire("test.site").ok());   // pass 2
  EXPECT_EQ(registry.Fire("test.site").code(), StatusCode::kInternal);
  EXPECT_EQ(registry.Fire("test.site").code(), StatusCode::kInternal);
  // Budget exhausted: the site auto-disarmed; later passes are neither
  // intercepted nor counted (the disarmed fast path skips the registry).
  EXPECT_TRUE(registry.Fire("test.site").ok());
  EXPECT_FALSE(FaultInjection::AnyArmed());
  EXPECT_EQ(registry.PassCount("test.site"), 4);
}

TEST_F(FaultInjectionTest, UnlimitedTimesKeepsFiringUntilDisarmed) {
  auto& registry = FaultInjection::Instance();
  registry.Arm("test.site", UnavailableError("flaky"), 0, /*times=*/-1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(registry.Fire("test.site").code(), StatusCode::kUnavailable);
  }
  registry.Disarm("test.site");
  EXPECT_TRUE(registry.Fire("test.site").ok());
  EXPECT_FALSE(FaultInjection::AnyArmed());
}

TEST_F(FaultInjectionTest, ReArmingReplacesTheRule) {
  auto& registry = FaultInjection::Instance();
  registry.Arm("test.site", InternalError("a"), 0, 1);
  registry.Arm("test.site", NotFoundError("b"), 1, 1);
  EXPECT_TRUE(registry.Fire("test.site").ok());  // after_n reset to 1
  EXPECT_EQ(registry.Fire("test.site").code(), StatusCode::kNotFound);
}

TEST_F(FaultInjectionTest, ArmFromSpecParsesAndArms) {
  auto& registry = FaultInjection::Instance();
  ASSERT_TRUE(registry
                  .ArmFromSpec("site.a:0:unavailable,site.b:1:internal")
                  .ok());
  EXPECT_EQ(registry.ArmedSites().size(), 2u);
  EXPECT_EQ(registry.Fire("site.a").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(registry.Fire("site.b").ok());
  EXPECT_EQ(registry.Fire("site.b").code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionTest, ArmFromSpecRejectsGarbage) {
  auto& registry = FaultInjection::Instance();
  EXPECT_FALSE(registry.ArmFromSpec("missing-colons").ok());
  EXPECT_FALSE(registry.ArmFromSpec("site:notanumber:internal").ok());
  EXPECT_FALSE(registry.ArmFromSpec("site:0:no_such_status").ok());
  EXPECT_FALSE(registry.ArmFromSpec("site:0:ok").ok());
  EXPECT_EQ(registry.ArmedSites().size(), 0u);
}

// --- Recovery paths, one per catalog site -----------------------------------

TEST_F(FaultInjectionTest, EmbedderAttemptFaultConsumesOneRetry) {
  // First attempt eats the injected transient fault; the re-seeded second
  // attempt still finds the (trivial) embedding.
  FaultInjection::Instance().Arm("embedder.attempt",
                                 UnavailableError("injected"), 0, 1);
  SimpleGraph source(3);
  source.AddEdge(0, 1);
  source.AddEdge(1, 2);
  const SimpleGraph target = MakePegasus(2);
  EmbedOptions options;
  options.tries = 3;
  options.seed = 5;
  StatusOr<Embedding> embedding =
      TryFindMinorEmbedding(source, target, options);
  // Success proves the recovery: the injected fault consumed attempt 1
  // (the one recorded pass before auto-disarm), and a later re-seeded
  // attempt embedded anyway.
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  EXPECT_EQ(FaultInjection::Instance().PassCount("embedder.attempt"), 1);
}

TEST_F(FaultInjectionTest, EmbedderNonRetryableFaultSurfacesVerbatim) {
  FaultInjection::Instance().Arm("embedder.attempt",
                                 InternalError("injected hard fault"), 0, 1);
  SimpleGraph source(3);
  source.AddEdge(0, 1);
  source.AddEdge(1, 2);
  StatusOr<Embedding> embedding =
      TryFindMinorEmbedding(source, MakePegasus(2), EmbedOptions{});
  ASSERT_FALSE(embedding.ok());
  EXPECT_EQ(embedding.status().code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionTest, AnnealerSweepFaultFailsTheRead) {
  FaultInjection::Instance().Arm("annealer.sweep",
                                 InternalError("injected"), 0, 1);
  AnnealOptions options;
  options.num_reads = 2;
  options.num_sweeps = 50;
  options.seed = 3;
  StatusOr<AnnealResult> result = TrySolveQuboWithAnnealing(SmallQubo(),
                                                            options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionTest, AnnealerSweepFaultRecoversViaFacadeRetry) {
  // One transient sweep fault: attempt 1 fails, the re-seeded attempt 2
  // runs clean — the facade's retry recovery path.
  FaultInjection::Instance().Arm("annealer.sweep",
                                 UnavailableError("injected transient"), 0, 1);
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.anneal.num_reads = 4;
  options.anneal.num_sweeps = 100;
  options.seed = 7;
  options.budget.max_attempts = 2;
  StatusOr<MqoSolveReport> report = TrySolveMqo(MakePaperExampleMqo(),
                                                options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->valid);
  EXPECT_FALSE(report->degraded);
  EXPECT_EQ(report->stats.attempts, 2);
}

TEST_F(FaultInjectionTest, TranspileRouteFaultAbortsTheTranspile) {
  FaultInjection::Instance().Arm("transpile.route",
                                 InternalError("injected"), 0, 1);
  QuantumCircuit circuit(3);
  circuit.Cx(0, 2);
  circuit.Cx(1, 2);
  StatusOr<TranspileResult> result =
      TryTranspile(circuit, MakeMumbai27(), TranspileOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  // Disarmed again (times=1 consumed): the same call now succeeds — the
  // deterministic-trigger property recovery tests rely on.
  StatusOr<TranspileResult> retry =
      TryTranspile(circuit, MakeMumbai27(), TranspileOptions{});
  EXPECT_TRUE(retry.ok());
}

TEST_F(FaultInjectionTest, StatevectorAllocFaultDegradesQaoaToClassical) {
  FaultInjection::Instance().Arm("statevector.alloc",
                                 ResourceExhaustedError("injected"), 0, -1);
  OptimizerOptions options;
  options.backend = Backend::kQaoa;
  options.variational.max_iterations = 20;
  options.variational.shots = 64;
  options.seed = 2;
  StatusOr<MqoSolveReport> report = TrySolveMqo(MakePaperExampleMqo(),
                                                options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->valid);
  EXPECT_TRUE(report->degraded);
  EXPECT_NE(report->backend_used, Backend::kQaoa);
  FaultInjection::Instance().DisarmAll();
}

TEST_F(FaultInjectionTest, StatevectorAllocFaultFailsAdiabaticDirectly) {
  FaultInjection::Instance().Arm("statevector.alloc",
                                 ResourceExhaustedError("injected"), 0, 1);
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(MakePaperExampleMqo());
  AdiabaticOptions options;
  options.steps = 10;
  options.shots = 8;
  StatusOr<AdiabaticResult> result =
      TrySolveQuboAdiabatically(encoding.qubo, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(FaultInjectionTest, NonRetryableBackendFaultStillFallsBackClassically) {
  // An internal VQE fault is not retryable, but the classical fallback
  // still rescues the solve and reports why.
  FaultInjection::Instance().Arm("statevector.alloc",
                                 InternalError("injected vqe fault"), 0, -1);
  OptimizerOptions options;
  options.backend = Backend::kVqe;
  options.variational.max_iterations = 20;
  options.seed = 4;
  StatusOr<MqoSolveReport> report = TrySolveMqo(MakePaperExampleMqo(),
                                                options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_NE(report->degradation_reason.find("injected vqe fault"),
            std::string::npos);
  FaultInjection::Instance().DisarmAll();
}

TEST_F(FaultInjectionTest, NoFallbackSurfacesTheInjectedFault) {
  FaultInjection::Instance().Arm("statevector.alloc",
                                 InternalError("injected"), 0, -1);
  OptimizerOptions options;
  options.backend = Backend::kQaoa;
  options.classical_fallback = false;
  StatusOr<MqoSolveReport> report = TrySolveMqo(MakePaperExampleMqo(),
                                                options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  FaultInjection::Instance().DisarmAll();
}

}  // namespace
}  // namespace qopt
