// Robustness and property tests across modules: semantic preservation of
// commutation-aware routing, cluster-move annealing correctness, encoder
// pruning equivalence, and assorted edge cases.
#include <gtest/gtest.h>

#include <complex>
#include <numbers>
#include <ostream>
#include <string>

#include "anneal/chimera.h"
#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "anneal/embedding_composite.h"
#include "bilp/bilp_to_qubo.h"
#include "core/quantum_optimizer.h"
#include "anneal/simulated_annealer.h"
#include "bilp/bilp_branch_and_bound.h"
#include "circuit/statevector.h"
#include "common/random.h"
#include "joinorder/join_order.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "variational/adiabatic.h"
#include "variational/qaoa.h"
#include "variational/variational_solver.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/brute_force_solver.h"
#include "qubo/conversions.h"
#include "transpile/coupling_map.h"
#include "transpile/layout.h"
#include "transpile/swap_router.h"

namespace qopt {
namespace {

constexpr double kPi = std::numbers::pi;

double Fidelity(const std::vector<std::complex<double>>& a,
                const std::vector<std::complex<double>>& b) {
  std::complex<double> inner = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) inner += std::conj(a[i]) * b[i];
  return std::norm(inner);
}

QuboModel MakeRandomQubo(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  QuboBuilder qubo(n);
  for (int i = 0; i < n; ++i) qubo.AddLinear(i, rng.NextDouble(-2.0, 2.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(density)) {
        qubo.AddQuadratic(i, j, rng.NextDouble(-2.0, 2.0));
      }
    }
  }
  return std::move(qubo).Build();
}

// --- Commutation-aware routing preserves semantics -----------------------------

class CommuteRoutingTest : public ::testing::TestWithParam<int> {};

TEST_P(CommuteRoutingTest, ReorderedDiagonalRunsPreserveState) {
  Rng rng(GetParam());
  const int n = 5;
  QuantumCircuit circuit(n);
  // Mix of diagonal runs (rz, rzz, cz) and non-commuting gates.
  for (int g = 0; g < 30; ++g) {
    const int a = rng.NextInt(0, n - 1);
    int b = rng.NextInt(0, n - 1);
    while (b == a) b = rng.NextInt(0, n - 1);
    switch (rng.NextInt(0, 4)) {
      case 0: circuit.Rzz(a, b, rng.NextDouble(-kPi, kPi)); break;
      case 1: circuit.Rz(a, rng.NextDouble(-kPi, kPi)); break;
      case 2: circuit.Cz(a, b); break;
      case 3: circuit.H(a); break;
      default: circuit.Cx(a, b); break;
    }
  }
  const CouplingMap line = MakeLinear(n);
  Rng route_rng(GetParam() + 99);
  RouterOptions router;  // commute + lookahead on
  const RoutedCircuit routed =
      TryRouteCircuit(circuit, line, TrivialLayout(n), &route_rng, router)
          .value();

  const auto expected = SimulateCircuit(circuit).Amplitudes();
  const auto physical = SimulateCircuit(routed.circuit).Amplitudes();
  std::vector<std::complex<double>> actual(expected.size(), 0.0);
  for (std::size_t p_index = 0; p_index < physical.size(); ++p_index) {
    std::size_t l_index = 0;
    for (int l = 0; l < n; ++l) {
      const int p = routed.final_layout[static_cast<std::size_t>(l)];
      if (p_index & (std::size_t{1} << p)) l_index |= std::size_t{1} << l;
    }
    actual[l_index] += physical[p_index];
  }
  EXPECT_NEAR(Fidelity(expected, actual), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommuteRoutingTest, ::testing::Range(0, 8));

TEST(CommuteRoutingTest, CommuteOffAlsoPreservesSemantics) {
  QuantumCircuit circuit(4);
  circuit.H(0);
  circuit.Rzz(0, 3, 0.7);
  circuit.Rzz(1, 2, -0.4);
  circuit.Cx(0, 2);
  const CouplingMap line = MakeLinear(4);
  for (const bool commute : {true, false}) {
    Rng rng(5);
    RouterOptions router;
    router.commute_diagonal = commute;
    router.lookahead = 0;
    const RoutedCircuit routed =
        TryRouteCircuit(circuit, line, TrivialLayout(4), &rng, router).value();
    for (const Gate& g : routed.circuit.Gates()) {
      if (g.NumQubits() == 2) {
        EXPECT_TRUE(line.AreCoupled(g.qubit0, g.qubit1));
      }
    }
  }
}

TEST(CommuteRoutingTest, CommutationReducesSwapCount) {
  // A QAOA-like all-pairs RZZ layer on a line benefits from reordering.
  const int n = 8;
  QuantumCircuit circuit(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) circuit.Rzz(i, j, 0.3);
  }
  const CouplingMap line = MakeLinear(n);
  auto swaps_with = [&](bool commute) {
    Rng rng(3);
    RouterOptions router;
    router.commute_diagonal = commute;
    const RoutedCircuit routed =
        TryRouteCircuit(circuit, line, TrivialLayout(n), &rng, router).value();
    const auto counts = routed.circuit.CountOps();
    auto it = counts.find("swap");
    return it == counts.end() ? 0 : it->second;
  };
  EXPECT_LT(swaps_with(true), swaps_with(false));
}

// --- Cluster-move annealing -----------------------------------------------------

class ClusterMoveTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterMoveTest, GroupFlipsKeepEnergyBookkeepingConsistent) {
  const QuboModel qubo = MakeRandomQubo(10, 0.5, GetParam());
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  Rng rng(GetParam());
  AnnealOptions options;
  options.num_reads = 15;
  options.num_sweeps = 300;
  options.seed = GetParam() + 3;
  // Random overlapping groups; correctness must not depend on their shape.
  for (int g = 0; g < 4; ++g) {
    std::vector<int> group;
    for (int i = 0; i < 10; ++i) {
      if (rng.NextBool(0.4)) group.push_back(i);
    }
    if (!group.empty()) options.flip_groups.push_back(group);
  }
  const AnnealResult result = TrySolveQuboWithAnnealing(qubo, options).value();
  // Reported energy must match a fresh evaluation, and never beat exact.
  EXPECT_NEAR(result.best_energy, qubo.Energy(result.best_bits), 1e-9);
  EXPECT_GE(result.best_energy, exact.best_energy - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterMoveTest, ::testing::Range(0, 6));

TEST(ClusterMoveTest, GroupMovesEscapeChainBarriers) {
  // Two strongly ferromagnetically coupled pairs with a weak preference
  // for the all-ones state: single flips must cross a huge barrier, a
  // pair flip crosses none.
  QuboBuilder terms(4);
  const double strong = 100.0;
  // Pairs (0,1) and (2,3): x0 == x1 and x2 == x3 strongly preferred.
  for (const auto& [a, b] : {std::pair<int, int>{0, 1}, {2, 3}}) {
    terms.AddQuadratic(a, b, -2.0 * strong);
    terms.AddLinear(a, strong);
    terms.AddLinear(b, strong);
  }
  // Slight preference for ones.
  for (int i = 0; i < 4; ++i) terms.AddLinear(i, -0.5);
  const QuboModel qubo = std::move(terms).Build();
  AnnealOptions options;
  options.num_reads = 5;
  options.num_sweeps = 100;
  options.seed = 1;
  options.flip_groups = {{0, 1}, {2, 3}};
  const AnnealResult result = TrySolveQuboWithAnnealing(qubo, options).value();
  EXPECT_NEAR(result.best_energy,
              TrySolveQuboBruteForce(qubo).value().best_energy, 1e-9);
}

// --- Encoder pruning equivalence --------------------------------------------------

class PruningEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PruningEquivalenceTest, PrunedModelKeepsOptimalObjective) {
  QueryGeneratorOptions gen;
  gen.num_relations = 3;
  gen.num_predicates = 2;
  gen.cardinality_min = 10.0;
  gen.cardinality_max = 100.0;
  gen.selectivity_min = 0.2;
  gen.seed = GetParam();
  const QueryGraph graph = GenerateRandomQuery(gen);
  JoinOrderEncoderOptions base;
  base.thresholds = {10.0, 1000.0, 1e7};  // 1e7 is unreachable
  base.safe_slack_bounds = true;
  JoinOrderEncoderOptions pruned = base;
  pruned.prune_unreachable_cto = true;

  const auto full_solution =
      SolveBilpBranchAndBound(EncodeJoinOrderAsBilp(graph, base).bilp);
  const auto pruned_solution =
      SolveBilpBranchAndBound(EncodeJoinOrderAsBilp(graph, pruned).bilp);
  ASSERT_TRUE(full_solution.has_value());
  ASSERT_TRUE(pruned_solution.has_value());
  EXPECT_NEAR(full_solution->objective, pruned_solution->objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningEquivalenceTest, ::testing::Range(0, 4));

// --- Misc edge cases ----------------------------------------------------------------

TEST(EdgeCaseTest, RngBoundOne) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextUint64(1), 0u);
}

TEST(EdgeCaseTest, CouplingDistanceSymmetric) {
  const CouplingMap grid = MakeGrid(3, 3);
  for (int a = 0; a < 9; ++a) {
    for (int b = 0; b < 9; ++b) {
      EXPECT_EQ(grid.Distance(a, b), grid.Distance(b, a));
    }
  }
}

TEST(EdgeCaseTest, TwoRelationJoinOrderEncodes) {
  QueryGraph graph({10.0, 20.0});
  graph.AddPredicate(0, 1, 0.5);
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0};
  options.safe_slack_bounds = true;
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
  // One join only: no pao/cto variables survive the j = 0 pruning.
  EXPECT_EQ(encoding.num_logical, 4);  // tio/tii for 2 relations x 1 join
  const auto solution = SolveBilpBranchAndBound(encoding.bilp);
  ASSERT_TRUE(solution.has_value());
  std::vector<int> order;
  EXPECT_TRUE(DecodeJoinOrder(encoding, solution->bits, &order));
  EXPECT_TRUE(IsValidJoinOrder(graph, order));
}

TEST(EdgeCaseTest, MqoSingleQueryDegeneratesToMinCost) {
  MqoProblem problem;
  problem.AddQuery({5.0, 3.0, 9.0});
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(problem);
  const BruteForceResult ground = TrySolveQuboBruteForce(encoding.qubo).value();
  std::vector<int> selection;
  ASSERT_TRUE(problem.DecodeBits(ground.best_bits, &selection));
  EXPECT_EQ(selection, (std::vector<int>{1}));
}

TEST(EdgeCaseTest, EmbeddingCompositeHandlesIsolatedVariables) {
  // A QUBO whose interaction graph has isolated vertices (pure linear
  // variables) must still solve through an embedding.
  QuboBuilder terms(5);
  terms.AddLinear(0, -1.0);
  terms.AddLinear(4, 2.0);
  terms.AddQuadratic(1, 2, -1.5);
  const QuboModel qubo = std::move(terms).Build();
  EmbeddedSolveOptions options;
  options.anneal.num_reads = 10;
  options.anneal.seed = 2;
  options.embed.seed = 2;
  const auto result =
      TrySolveQuboOnTopology(qubo, MakeChimera(2, 2, 4), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->energy,
              TrySolveQuboBruteForce(qubo).value().best_energy, 1e-9);
}

TEST(EdgeCaseTest, StatevectorSingleQubitDevice) {
  QuantumCircuit c(1);
  c.Sx(0);
  c.Sx(0);
  // Two SX = X up to phase: probability of |1> is 1.
  const auto probs = SimulateCircuit(c).Probabilities();
  EXPECT_NEAR(probs[1], 1.0, 1e-12);
}

// --- Graceful degradation of the optimizer facade ---------------------------------

/// MQO instance whose QUBO interaction graph is a complete graph on
/// `queries * plans_per_query` vertices: one-hot penalties couple plans
/// within a query, dense cross-query savings couple everything else.
MqoProblem MakeDenseMqo(int queries, int plans_per_query) {
  MqoProblem problem;
  for (int q = 0; q < queries; ++q) {
    std::vector<double> costs;
    for (int p = 0; p < plans_per_query; ++p) {
      costs.push_back(5.0 + q + 0.25 * p);
    }
    problem.AddQuery(costs);
  }
  for (int p1 = 0; p1 < problem.NumPlans(); ++p1) {
    for (int p2 = p1 + 1; p2 < problem.NumPlans(); ++p2) {
      if (problem.QueryOfPlan(p1) != problem.QueryOfPlan(p2)) {
        problem.AddSaving(p1, p2, 0.3);
      }
    }
  }
  return problem;
}

TEST(DegradationTest, AnnealerEmbeddingFailureFallsBackToExactOptimum) {
  // A K20 interaction graph cannot be minor-embedded into a Pegasus P2
  // fabric (40 qubits, largest clique minor ~K14), so the annealer
  // emulation must fail recoverably and the facade fall back to the
  // exact classical solver (20 qubits is within its budget).
  const MqoProblem problem = MakeDenseMqo(5, 4);
  OptimizerOptions options;
  options.backend = Backend::kAnnealerEmulation;
  options.pegasus_m = 2;
  options.seed = 5;
  const auto report = TrySolveMqo(problem, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->backend_used, Backend::kExact);
  EXPECT_FALSE(report->degradation_reason.empty());
  ASSERT_TRUE(report->valid);

  OptimizerOptions oracle_options;
  oracle_options.backend = Backend::kExact;
  const auto oracle = TrySolveMqo(problem, oracle_options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(oracle->degraded);
  EXPECT_NEAR(report->solution.cost, oracle->solution.cost, 1e-9);
}

TEST(DegradationTest, AdiabaticBudgetOverflowFallsBackToAnnealing) {
  // 24 variables exceed the 20-qubit adiabatic simulation budget; the
  // problem is also too large for the exact fallback, so simulated
  // annealing stands in.
  const MqoProblem problem = MakeDenseMqo(6, 4);
  OptimizerOptions options;
  options.backend = Backend::kAdiabatic;
  options.anneal.num_reads = 30;
  options.anneal.num_sweeps = 2000;
  options.seed = 3;
  const auto report = TrySolveMqo(problem, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->backend_used, Backend::kSimulatedAnnealing);
  EXPECT_TRUE(report->valid);
}

TEST(DegradationTest, NoFallbackSurfacesBackendError) {
  const MqoProblem problem = MakeDenseMqo(5, 4);
  OptimizerOptions options;
  options.backend = Backend::kAnnealerEmulation;
  options.pegasus_m = 2;
  options.classical_fallback = false;
  const auto report = TrySolveMqo(problem, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(report.status().message().empty());
}

TEST(DegradationTest, InvalidOptionsAreNeverMaskedByFallback) {
  // Bad caller input (pegasus_m = 1 is not a valid fabric) must be
  // reported, not silently papered over by the classical fallback.
  const MqoProblem problem = MakeDenseMqo(2, 2);
  OptimizerOptions options;
  options.backend = Backend::kAnnealerEmulation;
  options.pegasus_m = 1;
  const auto report = TrySolveMqo(problem, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(DegradationTest, JoinOrderDegradesLikeMqo) {
  QueryGeneratorOptions gen;
  gen.num_relations = 4;
  gen.num_predicates = 4;
  gen.cardinality_min = 10.0;
  gen.cardinality_max = 1000.0;
  gen.selectivity_min = 0.1;
  gen.seed = 2;
  const QueryGraph graph = GenerateRandomQuery(gen);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 1000.0};
  encoder.safe_slack_bounds = true;
  // Self-check: the instance must actually exceed the adiabatic budget
  // for the degradation below to be exercised.
  const auto encoding = TryEncodeJoinOrderAsBilp(graph, encoder);
  ASSERT_TRUE(encoding.ok()) << encoding.status().ToString();
  ASSERT_GT(EncodeBilpAsQubo(encoding->bilp).qubo.NumVariables(), 20);

  OptimizerOptions options;
  options.backend = Backend::kAdiabatic;
  options.anneal.num_reads = 30;
  options.anneal.num_sweeps = 3000;
  options.seed = 4;
  const auto report = TrySolveJoinOrder(graph, encoder, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->backend_used, Backend::kSimulatedAnnealing);
  EXPECT_FALSE(report->degradation_reason.empty());
}

// --- Backend input limits: one contract matrix ------------------------------

/// One edge input for one backend: an option outside its range, a QUBO one
/// past the backend's qubit cap, both at once, or an option the backend
/// does not read (kOk). `code` and `message` are what the facade reports
/// for it; `kernel_code` is what the kernel's own Try* entry returns for
/// the same QUBO and options.
struct LimitCase {
  const char* name;
  Backend backend;
  /// Variables of the dense MQO: 6 fits every backend; 21, 27 and 42 are
  /// one past the adiabatic cap, the statevector and exact caps and the
  /// Pegasus P2 fabric (40 qubits), rounded up to whole 3-plan queries.
  int num_variables;
  void (*mutate)(OptimizerOptions*);
  StatusCode code;
  const char* message;
  StatusCode kernel_code;
};

std::ostream& operator<<(std::ostream& os, const LimitCase& c) {
  return os << c.name;
}

constexpr const char* kQaoaRange =
    "QAOA options out of range (need qaoa_reps >= 1, max_iterations >= 1, "
    "shots >= 1)";
constexpr const char* kVqeRange =
    "VQE options out of range (need max_iterations >= 1, shots >= 1)";
constexpr const char* kAdiabaticRange =
    "adiabatic options out of range (need steps >= 1, total_time > 0, "
    "shots >= 1)";
constexpr const char* kEmbeddedRange =
    "embedded SA needs num_reads >= 1 and num_sweeps >= 1";
constexpr StatusCode kOk = StatusCode::kOk;
constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;
constexpr StatusCode kExhausted = StatusCode::kResourceExhausted;

void KeepOptions(OptimizerOptions*) {}
void NoReads(OptimizerOptions* o) { o->anneal.num_reads = 0; }
void NoSweeps(OptimizerOptions* o) { o->anneal.num_sweeps = 0; }
void NoQaoaReps(OptimizerOptions* o) { o->variational.qaoa_reps = 0; }
void NoIterations(OptimizerOptions* o) { o->variational.max_iterations = 0; }
void NoVariationalShots(OptimizerOptions* o) { o->variational.shots = 0; }
void NoSteps(OptimizerOptions* o) { o->adiabatic.steps = 0; }
void NoTime(OptimizerOptions* o) { o->adiabatic.total_time = 0.0; }
void NoAdiabaticShots(OptimizerOptions* o) { o->adiabatic.shots = 0; }
void NoEmbeddedReads(OptimizerOptions* o) { o->embedded.anneal.num_reads = 0; }
void NoEmbeddedSweeps(OptimizerOptions* o) {
  o->embedded.anneal.num_sweeps = 0;
}

const LimitCase kLimitCases[] = {
    {"exact_over_cap", Backend::kExact, 27, KeepOptions, kExhausted,
     "exact oracle enumerates 2^27 assignments; limit is 26 variables",
     kExhausted},
    {"sa_no_reads", Backend::kSimulatedAnnealing, 6, NoReads, kInvalid,
     "SA needs num_reads >= 1 and num_sweeps >= 1, got 0 / 1000", kInvalid},
    {"sa_no_sweeps", Backend::kSimulatedAnnealing, 6, NoSweeps, kInvalid,
     "SA needs num_reads >= 1 and num_sweeps >= 1, got 10 / 0", kInvalid},
    {"qaoa_no_reps", Backend::kQaoa, 6, NoQaoaReps, kInvalid,
     kQaoaRange, kInvalid},
    {"qaoa_no_iterations", Backend::kQaoa, 6, NoIterations, kInvalid,
     kQaoaRange, kInvalid},
    {"qaoa_no_shots", Backend::kQaoa, 6, NoVariationalShots, kInvalid,
     kQaoaRange, kInvalid},
    {"qaoa_over_cap", Backend::kQaoa, 27, KeepOptions, kExhausted,
     "QAOA circuit needs 27 qubits; the statevector simulator supports at "
     "most 26",
     kExhausted},
    {"qaoa_over_cap_and_no_shots", Backend::kQaoa, 27, NoVariationalShots,
     kExhausted,
     "QAOA circuit needs 27 qubits; the statevector simulator supports at "
     "most 26",
     kExhausted},
    // VQE's depth is fixed, so it does not read QAOA's depth option.
    {"vqe_no_qaoa_reps", Backend::kVqe, 6, NoQaoaReps, kOk, "", kOk},
    {"vqe_no_iterations", Backend::kVqe, 6, NoIterations, kInvalid,
     kVqeRange, kInvalid},
    {"vqe_no_shots", Backend::kVqe, 6, NoVariationalShots, kInvalid,
     kVqeRange, kInvalid},
    {"vqe_over_cap", Backend::kVqe, 27, KeepOptions, kExhausted,
     "VQE circuit needs 27 qubits; the statevector simulator supports at "
     "most 26",
     kExhausted},
    {"vqe_over_cap_and_no_iterations", Backend::kVqe, 27, NoIterations,
     kExhausted,
     "VQE circuit needs 27 qubits; the statevector simulator supports at "
     "most 26",
     kExhausted},
    {"adiabatic_no_steps", Backend::kAdiabatic, 6, NoSteps, kInvalid,
     kAdiabaticRange, kInvalid},
    {"adiabatic_no_time", Backend::kAdiabatic, 6, NoTime, kInvalid,
     kAdiabaticRange, kInvalid},
    {"adiabatic_no_shots", Backend::kAdiabatic, 6, NoAdiabaticShots, kInvalid,
     kAdiabaticRange, kInvalid},
    {"adiabatic_over_cap", Backend::kAdiabatic, 21, KeepOptions, kExhausted,
     "adiabatic evolution needs 21 qubits; the dense propagator supports at "
     "most 20",
     kExhausted},
    {"adiabatic_over_cap_and_no_steps", Backend::kAdiabatic, 21, NoSteps,
     kExhausted,
     "adiabatic evolution needs 21 qubits; the dense propagator supports at "
     "most 20",
     kExhausted},
    {"annealer_no_reads", Backend::kAnnealerEmulation, 6, NoEmbeddedReads,
     kInvalid, kEmbeddedRange, kInvalid},
    {"annealer_no_sweeps", Backend::kAnnealerEmulation, 6, NoEmbeddedSweeps,
     kInvalid, kEmbeddedRange, kInvalid},
    // The kernel only sees a graph too large to embed (kUnavailable); the
    // facade knows the fabric is fixed and reports a budget instead.
    {"annealer_over_fabric", Backend::kAnnealerEmulation, 42, KeepOptions,
     kExhausted,
     "QUBO has 42 variables but the Pegasus P2 fabric offers only 40 "
     "qubits; use a larger pegasus_m",
     StatusCode::kUnavailable},
    {"annealer_over_fabric_and_no_reads", Backend::kAnnealerEmulation, 42,
     NoEmbeddedReads, kInvalid, kEmbeddedRange, kInvalid},
};

OptimizerOptions LimitCaseOptions(const LimitCase& c) {
  OptimizerOptions options;
  options.backend = c.backend;
  options.pegasus_m = 2;
  options.seed = 7;
  c.mutate(&options);
  return options;
}

/// Calls `options.backend`'s kernel directly, bypassing the facade.
Status RunKernel(const QuboModel& qubo, const OptimizerOptions& options) {
  switch (options.backend) {
    case Backend::kExact:
      return TrySolveQuboBruteForce(qubo, options.budget.deadline).status();
    case Backend::kSimulatedAnnealing:
      return TrySolveQuboWithAnnealing(qubo, options.anneal).status();
    case Backend::kQaoa:
      return TrySolveQuboWithQaoa(qubo, options.variational).status();
    case Backend::kVqe:
      return TrySolveQuboWithVqe(qubo, options.variational).status();
    case Backend::kAdiabatic:
      return TrySolveQuboAdiabatically(qubo, options.adiabatic).status();
    case Backend::kAnnealerEmulation:
      return TrySolveQuboOnTopology(qubo, MakePegasus(options.pegasus_m),
                                    options.embedded)
          .status();
  }
  return InternalError("unknown backend");
}

class BackendLimitsTest : public ::testing::TestWithParam<LimitCase> {};

TEST_P(BackendLimitsTest, KernelReturnsTheErrorInsteadOfAborting) {
  const LimitCase& c = GetParam();
  const MqoProblem problem = MakeDenseMqo(c.num_variables / 3, 3);
  const QuboModel qubo = EncodeMqoProblem(problem).value().qubo;
  ASSERT_EQ(qubo.NumVariables(), c.num_variables);
  const Status status = RunKernel(qubo, LimitCaseOptions(c));
  EXPECT_EQ(status.code(), c.kernel_code) << status.ToString();
  if (c.kernel_code == c.code) {
    EXPECT_EQ(status.message(), c.message);
  }
}

TEST_P(BackendLimitsTest, FacadeReportsTheSameErrorInEveryDispatch) {
  // An invalid option always surfaces. An exhausted budget surfaces unless
  // a stand-in may run: a quantum backend's classical fallback (serial or
  // race), or any backend's SA lane in a race.
  const LimitCase& c = GetParam();
  const MqoProblem problem = MakeDenseMqo(c.num_variables / 3, 3);
  const bool quantum = c.backend != Backend::kExact &&
                       c.backend != Backend::kSimulatedAnnealing;
  for (const DispatchMode dispatch :
       {DispatchMode::kSerial, DispatchMode::kRace}) {
    for (const bool fallback : {true, false}) {
      SCOPED_TRACE(DispatchModeName(dispatch) +
                   (fallback ? " with fallback" : " without fallback"));
      OptimizerOptions options = LimitCaseOptions(c);
      options.dispatch = dispatch;
      options.classical_fallback = fallback;
      const auto report = TrySolveMqo(problem, options);
      if (c.code == kOk) {
        EXPECT_TRUE(report.ok()) << report.status().ToString();
        continue;
      }
      const bool stands_in =
          c.code == kExhausted && fallback &&
          (quantum || dispatch == DispatchMode::kRace);
      if (!stands_in) {
        ASSERT_FALSE(report.ok());
        EXPECT_EQ(report.status().code(), c.code);
        EXPECT_EQ(report.status().message(), c.message);
        continue;
      }
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->degraded);
      EXPECT_EQ(report->backend_used, Backend::kSimulatedAnnealing);
      EXPECT_EQ(report->degradation_reason,
                BackendName(c.backend) + " backend failed (" +
                    Status(c.code, c.message).ToString() + ")");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BackendLimitsTest, ::testing::ValuesIn(kLimitCases),
    [](const ::testing::TestParamInfo<LimitCase>& param) {
      return std::string(param.param.name);
    });

TEST(KernelLimitsTest, EmptyQubosAndMalformedKernelOptionsAreRefused) {
  // Inputs only a direct kernel caller can set: the facade refuses an
  // empty QUBO itself and does not expose these options' edges.
  const QuboModel empty;
  for (const Backend backend :
       {Backend::kSimulatedAnnealing, Backend::kQaoa, Backend::kVqe,
        Backend::kAdiabatic, Backend::kAnnealerEmulation}) {
    OptimizerOptions options;
    options.backend = backend;
    options.pegasus_m = 2;
    EXPECT_EQ(RunKernel(empty, options).code(), kInvalid)
        << BackendName(backend);
  }
  const QuboModel qubo = MakeRandomQubo(6, 0.5, 1);
  AnnealOptions anneal;
  anneal.beta_min = -1.0;
  anneal.beta_max = 1.0;
  EXPECT_EQ(TrySolveQuboWithAnnealing(qubo, anneal).status().code(),
            kInvalid);
  EmbedOptions embed;
  embed.tries = 0;
  EXPECT_EQ(TryFindMinorEmbedding(qubo.InteractionGraph(), MakePegasus(2),
                                  embed)
                .status()
                .code(),
            kInvalid);
}

TEST(DegradationTest, QuboLargerThanTheFabricIsNotRetried) {
  // No retry can fit 42 variables into the 40-qubit P2 fabric, so the
  // failure is a budget (kResourceExhausted), not a retryable
  // kUnavailable: one annealer attempt, then the SA fallback.
  MqoGeneratorOptions gen;
  gen.num_queries = 14;
  gen.plans_per_query = 3;
  gen.seed = 5;
  OptimizerOptions options;
  options.backend = Backend::kAnnealerEmulation;
  options.pegasus_m = 2;
  options.seed = 3;
  options.budget.retry.max_attempts = 4;
  options.budget.retry.initial_backoff_ms = 10.0;
  const auto report = TrySolveMqo(GenerateMqoProblem(gen), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->stats.attempts, 2);
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->backend_used, Backend::kSimulatedAnnealing);
}

TEST(EdgeCaseTest, QaoaOnFieldOnlyHamiltonian) {
  // No couplings at all: QAOA still runs and the circuit has no RZZ.
  IsingModel ising(3);
  ising.AddField(0, 1.0);
  ising.AddField(1, -2.0);
  ising.AddField(2, 0.5);
  const QuantumCircuit circuit = BuildQaoaTemplate(ising);
  EXPECT_EQ(circuit.CountOps().count("rzz"), 0u);
  EXPECT_EQ(circuit.CountOps().at("rz"), 3);
}

}  // namespace
}  // namespace qopt
