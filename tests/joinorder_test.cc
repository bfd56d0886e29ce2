#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "anneal/simulated_annealer.h"
#include "common/random.h"
#include "bilp/bilp_branch_and_bound.h"
#include "bilp/bilp_problem.h"
#include "bilp/bilp_to_qubo.h"
#include "joinorder/join_order.h"
#include "joinorder/join_order_baselines.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "qubo/brute_force_solver.h"

namespace qopt {
namespace {

/// The worked example of Sec. 6.1.2: relations A, B, C with 10 tuples
/// each, one predicate A-B with selectivity 0.1, one threshold value 10.
QueryGraph MakeSection612Example() {
  QueryGraph graph({10.0, 10.0, 10.0});
  graph.AddPredicate(0, 1, 0.1);
  return graph;
}

// --- Query graph -------------------------------------------------------------

TEST(QueryGraphTest, BasicAccessors) {
  const QueryGraph graph = MakePaperExampleQuery();
  EXPECT_EQ(graph.NumRelations(), 3);
  EXPECT_EQ(graph.NumPredicates(), 2);
  EXPECT_EQ(graph.NumJoins(), 2);
  EXPECT_DOUBLE_EQ(graph.Cardinality(0), 10.0);
  EXPECT_DOUBLE_EQ(graph.Cardinality(2), 1000.0);
}

TEST(QueryGraphTest, SelectivityAgainstSet) {
  const QueryGraph graph = MakePaperExampleQuery();
  // S against {R}: predicate RS applies.
  EXPECT_DOUBLE_EQ(graph.SelectivityAgainst(1, {true, false, false}), 0.1);
  // S against {R, T}: both predicates apply.
  EXPECT_DOUBLE_EQ(graph.SelectivityAgainst(1, {true, false, true}), 0.005);
  // T against {R}: cross product.
  EXPECT_DOUBLE_EQ(graph.SelectivityAgainst(2, {true, false, false}), 1.0);
}

TEST(QueryGraphTest, RandomGeneratorShape) {
  QueryGeneratorOptions gen;
  gen.num_relations = 8;
  gen.num_predicates = 14;  // 2J
  gen.seed = 5;
  const QueryGraph graph = GenerateRandomQuery(gen);
  EXPECT_EQ(graph.NumRelations(), 8);
  EXPECT_EQ(graph.NumPredicates(), 14);
  // All predicate pairs distinct.
  for (std::size_t a = 0; a < graph.Predicates().size(); ++a) {
    for (std::size_t b = a + 1; b < graph.Predicates().size(); ++b) {
      const auto& pa = graph.Predicates()[a];
      const auto& pb = graph.Predicates()[b];
      EXPECT_FALSE(pa.rel1 == pb.rel1 && pa.rel2 == pb.rel2);
    }
  }
}

TEST(QueryGraphTest, ChainAndStarGenerators) {
  const QueryGraph chain = GenerateChainQuery(5, 100.0, 0.1);
  EXPECT_EQ(chain.NumPredicates(), 4);
  const QueryGraph star = GenerateStarQuery(5, 100.0, 0.1);
  EXPECT_EQ(star.NumPredicates(), 4);
  for (const auto& p : star.Predicates()) EXPECT_EQ(p.rel1, 0);
}

// --- Cost function (Table 3) ----------------------------------------------------

TEST(CoutCostTest, PaperTable3Values) {
  const QueryGraph graph = MakePaperExampleQuery();
  EXPECT_DOUBLE_EQ(CoutCost(graph, {0, 1, 2}), 51000.0);   // (R|><|S)|><|T
  EXPECT_DOUBLE_EQ(CoutCost(graph, {0, 2, 1}), 60000.0);   // (R|><|T)|><|S
  EXPECT_DOUBLE_EQ(CoutCost(graph, {1, 2, 0}), 100000.0);  // (S|><|T)|><|R
}

TEST(CoutCostTest, FirstPairOrderIrrelevant) {
  const QueryGraph graph = MakePaperExampleQuery();
  EXPECT_DOUBLE_EQ(CoutCost(graph, {0, 1, 2}), CoutCost(graph, {1, 0, 2}));
}

TEST(CoutCostTest, ExcludingFinalJoinDropsLastTerm) {
  const QueryGraph graph = MakePaperExampleQuery();
  EXPECT_DOUBLE_EQ(CoutCost(graph, {0, 1, 2}, false), 1000.0);
}

TEST(CoutCostTest, IntermediateCardinality) {
  const QueryGraph graph = MakePaperExampleQuery();
  EXPECT_DOUBLE_EQ(IntermediateCardinality(graph, {0, 1}), 1000.0);
  EXPECT_DOUBLE_EQ(IntermediateCardinality(graph, {0, 1, 2}), 50000.0);
  EXPECT_DOUBLE_EQ(IntermediateCardinality(graph, {0, 2}), 10000.0);
}

TEST(JoinOrderTest, Validation) {
  const QueryGraph graph = MakePaperExampleQuery();
  EXPECT_TRUE(IsValidJoinOrder(graph, {2, 0, 1}));
  EXPECT_FALSE(IsValidJoinOrder(graph, {0, 1}));
  EXPECT_FALSE(IsValidJoinOrder(graph, {0, 1, 1}));
  EXPECT_FALSE(IsValidJoinOrder(graph, {0, 1, 3}));
}

// --- Classical baselines -----------------------------------------------------------

TEST(JoinOrderBaselinesTest, ExhaustiveFindsTable3Optimum) {
  const QueryGraph graph = MakePaperExampleQuery();
  const JoinOrderSolution best = SolveJoinOrderExhaustive(graph);
  EXPECT_DOUBLE_EQ(best.cost, 51000.0);
}

class JoinOrderDpParamTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinOrderDpParamTest, DpMatchesExhaustive) {
  QueryGeneratorOptions gen;
  gen.num_relations = 6;
  gen.num_predicates = 5 + (GetParam() % 4);
  gen.cardinality_min = 10.0;
  gen.cardinality_max = 10000.0;
  gen.selectivity_min = 0.001;
  gen.selectivity_max = 0.9;
  gen.seed = GetParam();
  const QueryGraph graph = GenerateRandomQuery(gen);
  const JoinOrderSolution exhaustive = SolveJoinOrderExhaustive(graph);
  const JoinOrderSolution dp = SolveJoinOrderDp(graph);
  EXPECT_TRUE(IsValidJoinOrder(graph, dp.order));
  EXPECT_NEAR(dp.cost / exhaustive.cost, 1.0, 1e-9);
}

TEST_P(JoinOrderDpParamTest, GreedyIsValidAndNotBetterThanOptimal) {
  QueryGeneratorOptions gen;
  gen.num_relations = 7;
  gen.num_predicates = 6 + (GetParam() % 5);
  gen.cardinality_min = 10.0;
  gen.cardinality_max = 100000.0;
  gen.selectivity_min = 0.0001;
  gen.selectivity_max = 1.0;
  gen.seed = GetParam() + 40;
  const QueryGraph graph = GenerateRandomQuery(gen);
  const JoinOrderSolution greedy = SolveJoinOrderGreedy(graph);
  const JoinOrderSolution dp = SolveJoinOrderDp(graph);
  EXPECT_TRUE(IsValidJoinOrder(graph, greedy.order));
  EXPECT_GE(greedy.cost, dp.cost * (1.0 - 1e-12));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, JoinOrderDpParamTest,
                         ::testing::Range(0, 10));

// --- Resource-count formulas (Eq. 45-54, Table 4) -----------------------------------

TEST(ResourceCountTest, Table4Problem1) {
  const auto counts = CountJoinOrderQubits(3, 3, 1, 1.0);
  EXPECT_EQ(counts.logical, 16);
  EXPECT_EQ(counts.single_slack, 12);
  EXPECT_EQ(counts.expansion_slack, 2);
  EXPECT_EQ(counts.total, 30);
}

TEST(ResourceCountTest, Table4Problem2) {
  const auto counts = CountJoinOrderQubits(3, 0, 4, 1.0);
  EXPECT_EQ(counts.logical, 16);
  EXPECT_EQ(counts.single_slack, 6);
  EXPECT_EQ(counts.expansion_slack, 8);
  EXPECT_EQ(counts.total, 30);
}

TEST(ResourceCountTest, Table4Problem3) {
  const auto counts = CountJoinOrderQubits(3, 0, 1, 0.001);
  EXPECT_EQ(counts.logical, 13);
  EXPECT_EQ(counts.single_slack, 6);
  EXPECT_EQ(counts.expansion_slack, 11);
  EXPECT_EQ(counts.total, 30);
}

TEST(ResourceCountTest, Figure12ReferencePoint) {
  // T = 20, P = J = 19, R = 20, omega = 1 -> 3886 qubits (~4000 in Fig. 12).
  const auto counts = CountJoinOrderQubits(20, 19, 20, 1.0);
  EXPECT_EQ(counts.total, 3886);
}

TEST(ResourceCountTest, Figure11ReferencePoint) {
  // T = 42, P = J = 41, R = 1, omega = 1: about 10,000 qubits.
  const auto counts = CountJoinOrderQubits(42, 41, 1, 1.0);
  EXPECT_GT(counts.total, 9500);
  EXPECT_LT(counts.total, 11000);
}

TEST(ResourceCountTest, MorePredicatesMoreQubits) {
  const auto p1 = CountJoinOrderQubits(20, 19, 1, 1.0);
  const auto p2 = CountJoinOrderQubits(20, 38, 1, 1.0);
  const auto p3 = CountJoinOrderQubits(20, 57, 1, 1.0);
  EXPECT_LT(p1.total, p2.total);
  EXPECT_LT(p2.total, p3.total);
}

TEST(ResourceCountTest, SmallerOmegaMoreQubits) {
  const auto coarse = CountJoinOrderQubits(20, 19, 10, 1.0);
  const auto fine = CountJoinOrderQubits(20, 19, 10, 0.0001);
  EXPECT_GT(fine.total, coarse.total);
  EXPECT_EQ(fine.logical, coarse.logical);  // omega only affects slacks
}

// --- BILP encoder --------------------------------------------------------------------

TEST(JoinOrderEncoderTest, VariableCountsMatchClosedForm) {
  for (const auto& [t, p, r, decimals] :
       std::vector<std::tuple<int, int, int, int>>{
           {3, 3, 1, 0}, {3, 0, 4, 0}, {3, 0, 1, 3}, {4, 3, 2, 1},
           {5, 4, 3, 0}, {6, 5, 1, 2}}) {
    QueryGeneratorOptions gen;
    gen.num_relations = t;
    gen.num_predicates = p;
    gen.seed = 7;
    QueryGraph graph = p >= t - 1
                           ? GenerateRandomQuery(gen)
                           : QueryGraph(std::vector<double>(t, 10.0));
    JoinOrderEncoderOptions options;
    options.thresholds.clear();
    for (int i = 0; i < r; ++i) {
      options.thresholds.push_back(10.0 * (i + 1));
    }
    options.precision_decimals = decimals;
    const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
    const auto counts = CountJoinOrderQubits(t, graph.NumPredicates(), r,
                                             encoding.omega, 10.0);
    EXPECT_EQ(encoding.num_logical, counts.logical);
    EXPECT_EQ(encoding.num_single_slacks, counts.single_slack);
    EXPECT_EQ(encoding.num_expansion_slacks, counts.expansion_slack);
    EXPECT_EQ(encoding.bilp.NumVariables(), counts.total);
  }
}

TEST(JoinOrderEncoderTest, PruningRemovesUnreachableThresholds) {
  QueryGraph graph({10.0, 10.0, 10.0, 10.0});
  JoinOrderEncoderOptions base;
  base.thresholds = {10.0, 1e6};  // 1e6 unreachable: max card is 10^4
  const JoinOrderEncoding unpruned = EncodeJoinOrderAsBilp(graph, base);
  JoinOrderEncoderOptions pruning = base;
  pruning.prune_unreachable_cto = true;
  const JoinOrderEncoding pruned = EncodeJoinOrderAsBilp(graph, pruning);
  EXPECT_LT(pruned.bilp.NumVariables(), unpruned.bilp.NumVariables());
}

TEST(JoinOrderEncoderTest, BranchAndBoundFindsOptimalOrderOnExample) {
  const QueryGraph graph = MakeSection612Example();
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0};
  options.safe_slack_bounds = true;
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
  const auto solution = SolveBilpBranchAndBound(encoding.bilp);
  ASSERT_TRUE(solution.has_value());
  // Optimal orders keep the intermediate cardinality at 10 = threshold, so
  // no threshold variable fires.
  EXPECT_NEAR(solution->objective, 0.0, 1e-9);
  std::vector<int> order;
  ASSERT_TRUE(DecodeJoinOrder(encoding, solution->bits, &order));
  // A (0) and B (1) must be joined first in some order.
  EXPECT_TRUE((order[0] == 0 && order[1] == 1) ||
              (order[0] == 1 && order[1] == 0))
      << order[0] << "," << order[1] << "," << order[2];
}

TEST(JoinOrderEncoderTest, SuboptimalOrdersPayThresholdPenalty) {
  const QueryGraph graph = MakeSection612Example();
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0};
  options.safe_slack_bounds = true;
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
  // Enumerate all feasible assignments with branch and bound repeatedly is
  // overkill; instead check the objective structure: delta theta for the
  // single threshold is 10.
  EXPECT_DOUBLE_EQ(
      encoding.bilp.ObjectiveCoefficient(encoding.cto[0][1]), 10.0);
  EXPECT_EQ(encoding.cto[0][0], -1);  // pruned for the first join
}

TEST(JoinOrderEncoderTest, DecodeRejectsNonPermutations) {
  const QueryGraph graph = MakeSection612Example();
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, {});
  std::vector<std::uint8_t> bits(
      static_cast<std::size_t>(encoding.bilp.NumVariables()), 0);
  std::vector<int> order;
  EXPECT_FALSE(DecodeJoinOrder(encoding, bits, &order));  // nothing selected
  bits[static_cast<std::size_t>(encoding.tio[0][0])] = 1;
  bits[static_cast<std::size_t>(encoding.tii[0][0])] = 1;  // reuses relation 0
  bits[static_cast<std::size_t>(encoding.tii[1][1])] = 1;
  EXPECT_FALSE(DecodeJoinOrder(encoding, bits, &order));
}

TEST(JoinOrderEncoderTest, DecodeAcceptsValidAssignment) {
  const QueryGraph graph = MakeSection612Example();
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, {});
  std::vector<std::uint8_t> bits(
      static_cast<std::size_t>(encoding.bilp.NumVariables()), 0);
  bits[static_cast<std::size_t>(encoding.tio[2][0])] = 1;
  bits[static_cast<std::size_t>(encoding.tii[0][0])] = 1;
  bits[static_cast<std::size_t>(encoding.tii[1][1])] = 1;
  std::vector<int> order;
  ASSERT_TRUE(DecodeJoinOrder(encoding, bits, &order));
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

// --- BILP -> QUBO ----------------------------------------------------------------------

TEST(BilpToQuboTest, PenaltyWeightSatisfiesEq44) {
  const QueryGraph graph = MakeSection612Example();
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, {});
  const BilpQuboEncoding qubo = EncodeBilpAsQubo(encoding.bilp);
  EXPECT_GT(qubo.penalty_a,
            encoding.bilp.ObjectiveUpperBound() /
                (encoding.omega * encoding.omega));
}

TEST(BilpToQuboTest, PaperExampleMatchesPinnedOutputs) {
  // Golden penalty A (Eq. 44 with B = 1) and the energies of two
  // assignments on the paper's three-relation example, in hexfloat.
  const JoinOrderEncoding encoding =
      EncodeJoinOrderAsBilp(MakePaperExampleQuery(), {});
  const BilpQuboEncoding qubo = EncodeBilpAsQubo(encoding.bilp);
  const std::vector<std::uint8_t> zeros(
      static_cast<std::size_t>(qubo.qubo.NumVariables()), 0);
  const std::vector<std::uint8_t> ones(zeros.size(), 1);
  std::ostringstream pinned;
  pinned << std::hexfloat << qubo.penalty_a << ' ' << qubo.qubo.Energy(zeros)
         << ' ' << qubo.qubo.Energy(ones);
  EXPECT_EQ(pinned.str(), "0x1.6p+3 0x1.b8p+6 0x1.b78p+9");
}

TEST(BilpToQuboTest, FeasibleAssignmentsKeepObjectiveEnergy) {
  // For a feasible x, all penalty terms vanish: energy == B * c^T x.
  BilpProblem bilp;
  const int x0 = bilp.AddVariable(1.0);
  const int x1 = bilp.AddVariable(2.0);
  const int x2 = bilp.AddVariable(0.0);
  bilp.AddConstraint({{{x0, 1.0}, {x1, 1.0}}, 1.0});      // x0 + x1 = 1
  bilp.AddConstraint({{{x1, 1.0}, {x2, -1.0}}, 0.0});     // x1 = x2
  const BilpQuboEncoding encoding = EncodeBilpAsQubo(bilp);
  EXPECT_NEAR(encoding.qubo.Energy({1, 0, 0}), 1.0, 1e-9);
  EXPECT_NEAR(encoding.qubo.Energy({0, 1, 1}), 2.0, 1e-9);
  // Infeasible assignments pay at least A.
  EXPECT_GE(encoding.qubo.Energy({0, 0, 0}), encoding.penalty_a - 1e-9);
  EXPECT_GE(encoding.qubo.Energy({1, 1, 1}), encoding.penalty_a - 1e-9);
}

TEST(BilpToQuboTest, GroundStateIsOptimalFeasibleAssignment) {
  BilpProblem bilp;
  const int a = bilp.AddVariable(3.0);
  const int b = bilp.AddVariable(1.0);
  const int c = bilp.AddVariable(2.0);
  bilp.AddConstraint({{{a, 1.0}, {b, 1.0}, {c, 1.0}}, 1.0});  // pick one
  const BilpQuboEncoding encoding = EncodeBilpAsQubo(bilp);
  const BruteForceResult ground = TrySolveQuboBruteForce(encoding.qubo).value();
  EXPECT_EQ(ground.best_bits, (std::vector<std::uint8_t>{0, 1, 0}));
  EXPECT_NEAR(ground.best_energy, 1.0, 1e-9);
}

/// FNV-1a over 64-bit words: a digest of an encoding's exact bit patterns.
std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xFFu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The bit patterns of an encoding: penalty A, offset, every linear
/// coefficient and every sorted quadratic term, as hex words plus one
/// digest of all of them. `std::bit_cast` tells -0.0 from +0.0, which `==`
/// would not.
std::string EncodingBits(const BilpQuboEncoding& encoding) {
  const QuboModel& qubo = encoding.qubo;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < qubo.NumVariables(); ++i) {
    hash = Fnv1a(hash, std::bit_cast<std::uint64_t>(qubo.Linear(i)));
  }
  for (const auto& [pair, coeff] : qubo.QuadraticTerms()) {
    hash = Fnv1a(hash, static_cast<std::uint64_t>(pair.first));
    hash = Fnv1a(hash, static_cast<std::uint64_t>(pair.second));
    hash = Fnv1a(hash, std::bit_cast<std::uint64_t>(coeff));
  }
  std::ostringstream out;
  out << std::hex << std::bit_cast<std::uint64_t>(encoding.penalty_a) << ' '
      << std::bit_cast<std::uint64_t>(qubo.Offset()) << ' ' << std::dec
      << qubo.NumVariables() << ' ' << qubo.NumQuadraticTerms() << ' '
      << std::hex << hash;
  return out.str();
}

TEST(BilpToQuboTest, ZeroCoefficientRowsMatchPinnedOutputs) {
  // At omega = 1 a predicate with selectivity above 10^-0.5 rounds to a
  // log-selectivity of 0, so its type-7 rows carry pao terms with
  // coefficient 0. The clique is shaped like perfbench's large_decompose
  // clique; the chain is one of its sparse joins.
  const JoinOrderEncoding clique =
      EncodeJoinOrderAsBilp(GenerateCliqueQuery(20, 100.0, 0.656531), {});
  EXPECT_EQ(EncodingBits(EncodeBilpAsQubo(clique.bilp)),
            "4066a00000000000 40f278a000000000 11504 31936 a1fe7c9b3a54c6e");
  const JoinOrderEncoding chain =
      EncodeJoinOrderAsBilp(GenerateChainQuery(20, 100.0, 0.4), {});
  EXPECT_EQ(EncodingBits(EncodeBilpAsQubo(chain.bilp)),
            "4066a00000000000 40f278a000000000 2270 13468 d5139f7aa1b25496");
}

TEST(BilpToQuboTest, ZeroCoefficientTermEncodesLikeItsAbsence) {
  // The same rows with and without a zero-coefficient term on x1. Row 2
  // also couples x1 to x0 and x2, so those pairs sum a non-zero
  // coefficient with the +0 and -0 the zero term contributes.
  auto make = [](bool with_zero_term) {
    BilpProblem bilp;
    const int x0 = bilp.AddVariable(1.0);
    const int x1 = bilp.AddVariable(2.0);
    const int x2 = bilp.AddVariable(0.5);
    const int x3 = bilp.AddVariable(0.0);
    BilpProblem::Constraint row{{{x0, 1.0}}, 1.0};
    if (with_zero_term) row.terms.emplace_back(x1, 0.0);
    row.terms.emplace_back(x2, -1.0);
    row.terms.emplace_back(x3, 2.0);
    bilp.AddConstraint(row);
    bilp.AddConstraint({{{x1, 1.0}, {x0, -1.0}, {x2, 1.0}}, 0.0});
    return EncodeBilpAsQubo(bilp);
  };
  const BilpQuboEncoding with_zero = make(true);
  const BilpQuboEncoding without = make(false);
  EXPECT_EQ(EncodingBits(with_zero), EncodingBits(without));
  EXPECT_EQ(with_zero.qubo.NumQuadraticTerms(), 5);
}

TEST(JoinOrderQuboTest, GroundStateDecodesToOptimalOrder) {
  // Full pipeline on the Sec. 6.1.2 example: 24 binary variables, still
  // within brute-force reach.
  const QueryGraph graph = MakeSection612Example();
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0};
  options.safe_slack_bounds = true;
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
  ASSERT_LE(encoding.bilp.NumVariables(), 26);
  const BilpQuboEncoding qubo = EncodeBilpAsQubo(encoding.bilp);
  const BruteForceResult ground = TrySolveQuboBruteForce(qubo.qubo).value();
  EXPECT_TRUE(encoding.bilp.IsFeasible(ground.best_bits, encoding.omega / 2));
  std::vector<int> order;
  ASSERT_TRUE(DecodeJoinOrder(encoding, ground.best_bits, &order));
  EXPECT_TRUE((order[0] == 0 && order[1] == 1) ||
              (order[0] == 1 && order[1] == 0));
  // Ground energy equals the optimal BILP objective (0 here).
  EXPECT_NEAR(ground.best_energy, 0.0, 1e-6);
}

TEST(JoinOrderQuboTest, SimulatedAnnealingSolvesExample) {
  const QueryGraph graph = MakeSection612Example();
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0};
  options.safe_slack_bounds = true;
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
  const BilpQuboEncoding qubo = EncodeBilpAsQubo(encoding.bilp);
  AnnealOptions anneal;
  anneal.num_reads = 60;
  anneal.num_sweeps = 2000;
  anneal.seed = 12;
  const AnnealResult result =
      TrySolveQuboWithAnnealing(qubo.qubo, anneal).value();
  std::vector<int> order;
  ASSERT_TRUE(DecodeJoinOrder(encoding, result.best_bits, &order));
  EXPECT_TRUE(encoding.bilp.IsFeasible(result.best_bits, encoding.omega / 2));
}

// --- Branch and bound ---------------------------------------------------------------------

TEST(BranchAndBoundTest, InfeasibleReturnsNullopt) {
  BilpProblem bilp;
  const int x = bilp.AddVariable(0.0);
  bilp.AddConstraint({{{x, 1.0}}, 2.0});  // x = 2 impossible
  EXPECT_FALSE(SolveBilpBranchAndBound(bilp).has_value());
}

TEST(BranchAndBoundTest, RespectsAllConstraints) {
  BilpProblem bilp;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(bilp.AddVariable(static_cast<double>(i)));
  }
  // Exactly two of the six, and x0 = x5.
  BilpProblem::Constraint sum;
  for (int v : vars) sum.terms.emplace_back(v, 1.0);
  sum.rhs = 2.0;
  bilp.AddConstraint(sum);
  bilp.AddConstraint({{{vars[0], 1.0}, {vars[5], -1.0}}, 0.0});
  const auto solution = SolveBilpBranchAndBound(bilp);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(bilp.IsFeasible(solution->bits));
  // Cheapest pair excluding the x0=x5 coupling: x1 + x2 = 3.
  EXPECT_NEAR(solution->objective, 3.0, 1e-9);
}

class JoinOrderBnbParamTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinOrderBnbParamTest, BnbDecodesValidOrders) {
  QueryGeneratorOptions gen;
  gen.num_relations = 3 + (GetParam() % 2);
  gen.num_predicates = gen.num_relations - 1;
  gen.cardinality_min = 10.0;
  gen.cardinality_max = 1000.0;
  gen.selectivity_min = 0.1;
  gen.selectivity_max = 1.0;
  gen.seed = GetParam();
  const QueryGraph graph = GenerateRandomQuery(gen);
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0, 100.0, 1000.0};
  options.safe_slack_bounds = true;
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
  const auto solution = SolveBilpBranchAndBound(encoding.bilp);
  ASSERT_TRUE(solution.has_value());
  std::vector<int> order;
  EXPECT_TRUE(DecodeJoinOrder(encoding, solution->bits, &order));
  EXPECT_TRUE(IsValidJoinOrder(graph, order));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, JoinOrderBnbParamTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace qopt
