#include "mqo/mqo_generator.h"

#include <algorithm>

#include "common/check.h"
#include "common/random.h"

namespace qopt {
namespace {

/// Savings are drawn uniformly from [kSavingMinFraction,
/// kSavingMaxFraction] times the smaller of the two plan costs (so a
/// saving never exceeds the cheaper plan, keeping costs meaningful).
constexpr double kSavingMinFraction = 0.1;
constexpr double kSavingMaxFraction = 0.8;

}  // namespace

MqoProblem GenerateMqoProblem(const MqoGeneratorOptions& options) {
  QOPT_CHECK(options.num_queries >= 1);
  QOPT_CHECK(options.plans_per_query >= 1);
  QOPT_CHECK(options.cost_min >= 0.0 && options.cost_max >= options.cost_min);
  QOPT_CHECK(options.saving_density >= 0.0 && options.saving_density <= 1.0);
  Rng rng(options.seed);
  MqoProblem problem;
  for (int q = 0; q < options.num_queries; ++q) {
    std::vector<double> costs(static_cast<std::size_t>(options.plans_per_query));
    for (double& c : costs) {
      c = rng.NextDouble(options.cost_min, options.cost_max);
    }
    problem.AddQuery(costs);
  }
  for (int p1 = 0; p1 < problem.NumPlans(); ++p1) {
    for (int p2 = p1 + 1; p2 < problem.NumPlans(); ++p2) {
      if (problem.QueryOfPlan(p1) == problem.QueryOfPlan(p2)) continue;
      if (!rng.NextBool(options.saving_density)) continue;
      const double cheaper =
          std::min(problem.PlanCost(p1), problem.PlanCost(p2));
      const double saving =
          rng.NextDouble(kSavingMinFraction, kSavingMaxFraction) * cheaper;
      if (saving > 0.0) problem.AddSaving(p1, p2, saving);
    }
  }
  return problem;
}

MqoProblem MakePaperExampleMqo() {
  MqoProblem problem;
  problem.AddQuery({10, 12, 15});  // plans 0, 1, 2 (paper ids 1, 2, 3)
  problem.AddQuery({9, 16});       // plans 3, 4    (paper ids 4, 5)
  problem.AddQuery({7, 12, 9});    // plans 5, 6, 7 (paper ids 6, 7, 8)
  problem.AddSaving(1, 3, 4);      // paper: plans 2 & 4 save 4
  problem.AddSaving(1, 7, 5);      // paper: plans 2 & 8 save 5
  problem.AddSaving(2, 3, 6);      // paper: plans 3 & 4 save 6
  problem.AddSaving(4, 6, 7);      // paper: plans 5 & 7 save 7
  problem.AddSaving(4, 7, 3);      // paper: plans 5 & 8 save 3
  return problem;
}

}  // namespace qopt
