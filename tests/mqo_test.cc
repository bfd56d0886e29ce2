#include <gtest/gtest.h>

#include <sstream>

#include "mqo/mqo_baselines.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_problem.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/brute_force_solver.h"

namespace qopt {
namespace {

// --- Problem basics -------------------------------------------------------

TEST(MqoProblemTest, PlanBookkeeping) {
  MqoProblem problem;
  problem.AddQuery({1.0, 2.0});
  problem.AddQuery({3.0});
  EXPECT_EQ(problem.NumQueries(), 2);
  EXPECT_EQ(problem.NumPlans(), 3);
  EXPECT_EQ(problem.QueryOfPlan(0), 0);
  EXPECT_EQ(problem.QueryOfPlan(2), 1);
  EXPECT_DOUBLE_EQ(problem.PlanCost(1), 2.0);
  EXPECT_EQ(problem.PlansOfQuery(1), (std::vector<int>{2}));
}

TEST(MqoProblemTest, SavingsAccumulate) {
  MqoProblem problem;
  problem.AddQuery({1.0});
  problem.AddQuery({1.0});
  problem.AddSaving(0, 1, 0.5);
  problem.AddSaving(1, 0, 0.25);
  ASSERT_EQ(problem.NumSavings(), 1);
  EXPECT_DOUBLE_EQ(problem.Savings()[0].second, 0.75);
}

TEST(MqoProblemTest, SelectionValidation) {
  MqoProblem problem;
  problem.AddQuery({1.0, 2.0});
  problem.AddQuery({3.0});
  EXPECT_TRUE(problem.IsValidSelection({0, 2}));
  EXPECT_TRUE(problem.IsValidSelection({1, 2}));
  EXPECT_FALSE(problem.IsValidSelection({2, 0}));
  EXPECT_FALSE(problem.IsValidSelection({0}));
}

TEST(MqoProblemTest, SelectionCostSubtractsSavings) {
  MqoProblem problem;
  problem.AddQuery({10.0, 12.0});
  problem.AddQuery({9.0});
  problem.AddSaving(1, 2, 4.0);
  EXPECT_DOUBLE_EQ(problem.SelectionCost({0, 2}), 19.0);
  EXPECT_DOUBLE_EQ(problem.SelectionCost({1, 2}), 12.0 + 9.0 - 4.0);
}

TEST(MqoProblemTest, DecodeBitsRequiresExactlyOnePlanPerQuery) {
  MqoProblem problem;
  problem.AddQuery({1.0, 2.0});
  problem.AddQuery({3.0, 4.0});
  std::vector<int> selection;
  EXPECT_TRUE(problem.DecodeBits({1, 0, 0, 1}, &selection));
  EXPECT_EQ(selection, (std::vector<int>{0, 3}));
  EXPECT_FALSE(problem.DecodeBits({1, 1, 0, 1}, &selection));  // two for q0
  EXPECT_FALSE(problem.DecodeBits({1, 0, 0, 0}, &selection));  // none for q1
}

// --- Paper example (Tables 1 and 2) ----------------------------------------

TEST(MqoExampleTest, LocallyOptimalCostIs26) {
  const MqoProblem example = MakePaperExampleMqo();
  const MqoSolution greedy = SolveMqoGreedy(example);
  EXPECT_DOUBLE_EQ(greedy.cost, 26.0);
  EXPECT_EQ(greedy.selection, (std::vector<int>{0, 3, 5}));
}

TEST(MqoExampleTest, GloballyOptimalCostIs21) {
  const MqoProblem example = MakePaperExampleMqo();
  const MqoSolution optimal = SolveMqoExhaustive(example);
  EXPECT_DOUBLE_EQ(optimal.cost, 21.0);
  // Plans 2, 4 and 8 in paper numbering = global ids 1, 3, 7.
  EXPECT_EQ(optimal.selection, (std::vector<int>{1, 3, 7}));
}

TEST(MqoExampleTest, QuboGroundStateMatchesOptimum) {
  const MqoProblem example = MakePaperExampleMqo();
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(example);
  const BruteForceResult ground = TrySolveQuboBruteForce(encoding.qubo).value();
  std::vector<int> selection;
  ASSERT_TRUE(example.DecodeBits(ground.best_bits, &selection));
  EXPECT_DOUBLE_EQ(example.SelectionCost(selection), 21.0);
}

// --- Encoder ----------------------------------------------------------------

TEST(MqoEncoderTest, VariableAndTermCounts) {
  const MqoProblem example = MakePaperExampleMqo();
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(example);
  EXPECT_EQ(encoding.qubo.NumVariables(), 8);  // one qubit per plan
  // EM: C(3,2) + C(2,2) + C(3,2) = 3 + 1 + 3 intra-query pairs;
  // ES: 5 savings pairs -> 12 quadratic terms in total.
  EXPECT_EQ(encoding.qubo.NumQuadraticTerms(), 12);
}

TEST(MqoEncoderTest, PenaltyWeightInequalitiesHold) {
  const MqoProblem example = MakePaperExampleMqo();
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(example);
  double max_cost = 0.0;
  for (int p = 0; p < example.NumPlans(); ++p) {
    max_cost = std::max(max_cost, example.PlanCost(p));
  }
  EXPECT_GT(encoding.weight_l, max_cost);          // Eq. 34
  EXPECT_GT(encoding.weight_m, encoding.weight_l); // Eq. 35 (first part)
}

TEST(MqoEncoderTest, ValidSelectionsGetLowerEnergyThanInvalid) {
  const MqoProblem example = MakePaperExampleMqo();
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(example);
  // Valid: plans {0, 3, 5}. Invalid: nothing selected / extra plan.
  const std::vector<std::uint8_t> valid = {1, 0, 0, 1, 0, 1, 0, 0};
  const std::vector<std::uint8_t> empty(8, 0);
  std::vector<std::uint8_t> extra = valid;
  extra[1] = 1;  // second plan for query 0
  EXPECT_LT(encoding.qubo.Energy(valid), encoding.qubo.Energy(empty));
  EXPECT_LT(encoding.qubo.Energy(valid), encoding.qubo.Energy(extra));
}

TEST(MqoEncoderTest, EnergyDifferenceEqualsCostDifference) {
  // Between two valid selections, the QUBO energy gap must equal the MQO
  // cost gap (EL contributes the same constant).
  const MqoProblem example = MakePaperExampleMqo();
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(example);
  const std::vector<std::uint8_t> a = {1, 0, 0, 1, 0, 1, 0, 0};  // 0,3,5
  const std::vector<std::uint8_t> b = {0, 1, 0, 1, 0, 0, 0, 1};  // 1,3,7
  const double energy_gap = encoding.qubo.Energy(b) - encoding.qubo.Energy(a);
  const double cost_gap = example.SelectionCost({1, 3, 7}) -
                          example.SelectionCost({0, 3, 5});
  EXPECT_NEAR(energy_gap, cost_gap, 1e-9);
}

class MqoEncoderParamTest : public ::testing::TestWithParam<int> {};

TEST_P(MqoEncoderParamTest, GroundStateDecodesToExhaustiveOptimum) {
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 3 + (GetParam() % 2);
  gen.saving_density = 0.2 + 0.1 * (GetParam() % 4);
  gen.seed = GetParam();
  const MqoProblem problem = GenerateMqoProblem(gen);
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(problem);
  const BruteForceResult ground = TrySolveQuboBruteForce(encoding.qubo).value();
  std::vector<int> selection;
  ASSERT_TRUE(problem.DecodeBits(ground.best_bits, &selection))
      << "QUBO ground state is not a valid selection";
  const MqoSolution exact = SolveMqoExhaustive(problem);
  EXPECT_NEAR(problem.SelectionCost(selection), exact.cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MqoEncoderParamTest,
                         ::testing::Range(0, 12));

// --- Generator ----------------------------------------------------------------

TEST(MqoGeneratorTest, ShapeMatchesOptions) {
  MqoGeneratorOptions gen;
  gen.num_queries = 5;
  gen.plans_per_query = 4;
  gen.seed = 3;
  const MqoProblem problem = GenerateMqoProblem(gen);
  EXPECT_EQ(problem.NumQueries(), 5);
  EXPECT_EQ(problem.NumPlans(), 20);
  for (int q = 0; q < 5; ++q) {
    EXPECT_EQ(problem.PlansOfQuery(q).size(), 4u);
  }
}

TEST(MqoGeneratorTest, DeterministicForSeed) {
  MqoGeneratorOptions gen;
  gen.seed = 11;
  const MqoProblem a = GenerateMqoProblem(gen);
  const MqoProblem b = GenerateMqoProblem(gen);
  EXPECT_EQ(a.NumSavings(), b.NumSavings());
  for (int p = 0; p < a.NumPlans(); ++p) {
    EXPECT_DOUBLE_EQ(a.PlanCost(p), b.PlanCost(p));
  }
}

TEST(MqoGeneratorTest, SavingsNeverExceedCheaperPlan) {
  MqoGeneratorOptions gen;
  gen.num_queries = 4;
  gen.plans_per_query = 5;
  gen.saving_density = 1.0;
  gen.seed = 17;
  const MqoProblem problem = GenerateMqoProblem(gen);
  for (const auto& [plans, saving] : problem.Savings()) {
    EXPECT_LE(saving, std::min(problem.PlanCost(plans.first),
                               problem.PlanCost(plans.second)) +
                          1e-9);
  }
}

TEST(MqoGeneratorTest, SavingsMatchPinnedOutputs) {
  // Golden savings of the fixed saving range [0.1, 0.8] x the cheaper
  // plan's cost, in hexfloat (equal strings mean equal bits).
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 3;
  gen.seed = 5;
  const MqoProblem problem = GenerateMqoProblem(gen);
  std::ostringstream savings;
  savings << std::hexfloat;
  for (const auto& [plans, saving] : problem.Savings()) {
    savings << plans.first << '-' << plans.second << ' ' << saving << ' ';
  }
  EXPECT_EQ(savings.str(),
            "0-5 0x1.50c566b8fc972p+2 2-3 0x1.7d0f9a88fa91fp+4 "
            "2-6 0x1.3067ff4511e87p+2 5-8 0x1.31097f84e609ap+3 ");
}

// --- Baselines -------------------------------------------------------------------

class MqoBaselineParamTest : public ::testing::TestWithParam<int> {};

TEST_P(MqoBaselineParamTest, HeuristicsAreValidAndBoundedByOptimum) {
  MqoGeneratorOptions gen;
  gen.num_queries = 4;
  gen.plans_per_query = 4;
  gen.saving_density = 0.4;
  gen.seed = GetParam() + 50;
  const MqoProblem problem = GenerateMqoProblem(gen);
  const MqoSolution exact = SolveMqoExhaustive(problem);

  for (const MqoSolution& heuristic :
       {SolveMqoGreedy(problem),
        SolveMqoGenetic(problem, {.seed = 1}),
        SolveMqoLocalSearch(problem, 10, 2)}) {
    EXPECT_TRUE(problem.IsValidSelection(heuristic.selection));
    EXPECT_GE(heuristic.cost, exact.cost - 1e-9);
    EXPECT_NEAR(problem.SelectionCost(heuristic.selection), heuristic.cost,
                1e-9);
  }
}

TEST_P(MqoBaselineParamTest, GeneticUsuallyFindsOptimumOnSmallInstances) {
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 3;
  gen.saving_density = 0.5;
  gen.seed = GetParam() + 300;
  const MqoProblem problem = GenerateMqoProblem(gen);
  const MqoSolution exact = SolveMqoExhaustive(problem);
  MqoGeneticOptions options;
  options.generations = 100;
  options.seed = 9;
  const MqoSolution ga = SolveMqoGenetic(problem, options);
  EXPECT_NEAR(ga.cost, exact.cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MqoBaselineParamTest,
                         ::testing::Range(0, 8));

TEST(MqoBaselineTest, GeneticSelectionMatchesPinnedOutputs) {
  // Golden selection of the fixed GA (population 40, crossover 0.9,
  // mutation 0.05, tournaments of 3) after a few generations on an
  // instance too large for it to reach the optimum.
  MqoGeneratorOptions gen;
  gen.num_queries = 12;
  gen.plans_per_query = 6;
  gen.seed = 21;
  const MqoProblem problem = GenerateMqoProblem(gen);
  MqoGeneticOptions options;
  options.generations = 6;
  options.seed = 4;
  const MqoSolution ga = SolveMqoGenetic(problem, options);
  std::ostringstream selection;
  for (int plan : ga.selection) selection << plan << ' ';
  selection << std::hexfloat << ga.cost;
  EXPECT_EQ(selection.str(),
            "3 10 15 23 24 33 37 46 48 59 65 66 0x1.04e152f088aecp+4");
}

TEST(MqoBaselineTest, LocalSearchAtLeastAsGoodAsGreedy) {
  const MqoProblem example = MakePaperExampleMqo();
  const MqoSolution greedy = SolveMqoGreedy(example);
  const MqoSolution local = SolveMqoLocalSearch(example, 5, 1);
  EXPECT_LE(local.cost, greedy.cost + 1e-9);
}

}  // namespace
}  // namespace qopt
