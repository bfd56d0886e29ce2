#include "mqo/mqo_qubo_encoder.h"

#include <algorithm>

#include "common/check.h"

namespace qopt {
namespace {

/// How much the penalty-weight inequalities (Eq. 34/35) are exceeded by.
constexpr double kSlack = 1.0;

}  // namespace

StatusOr<MqoQuboEncoding> TryEncodeMqoAsQubo(const MqoProblem& problem) {
  if (problem.NumQueries() < 1) {
    return InvalidArgumentError("MQO problem has no queries");
  }
  return EncodeMqoAsQubo(problem);
}

MqoQuboEncoding EncodeMqoAsQubo(const MqoProblem& problem) {
  QOPT_CHECK(problem.NumQueries() >= 1);

  // Penalty weights (Eq. 34/35).
  double max_cost = 0.0;
  for (int p = 0; p < problem.NumPlans(); ++p) {
    max_cost = std::max(max_cost, problem.PlanCost(p));
  }
  std::vector<double> savings_per_plan(
      static_cast<std::size_t>(problem.NumPlans()), 0.0);
  for (const auto& [plans, saving] : problem.Savings()) {
    savings_per_plan[static_cast<std::size_t>(plans.first)] += saving;
    savings_per_plan[static_cast<std::size_t>(plans.second)] += saving;
  }
  const double max_savings =
      savings_per_plan.empty()
          ? 0.0
          : *std::max_element(savings_per_plan.begin(), savings_per_plan.end());

  MqoQuboEncoding encoding;
  encoding.weight_l = max_cost + kSlack;
  encoding.weight_m = encoding.weight_l + max_savings + kSlack;

  QuboBuilder qubo(problem.NumPlans());
  // EL = -sum_p X_p, weighted by wL.
  for (int p = 0; p < problem.NumPlans(); ++p) {
    qubo.AddLinear(p, -encoding.weight_l);
  }
  // EM = sum_q sum_{p1<p2 in P_q} X_p1 X_p2, weighted by wM.
  for (int q = 0; q < problem.NumQueries(); ++q) {
    const auto& plans = problem.PlansOfQuery(q);
    for (std::size_t a = 0; a < plans.size(); ++a) {
      for (std::size_t b = a + 1; b < plans.size(); ++b) {
        qubo.AddQuadratic(plans[a], plans[b], encoding.weight_m);
      }
    }
  }
  // EC = sum_p c_p X_p.
  for (int p = 0; p < problem.NumPlans(); ++p) {
    qubo.AddLinear(p, problem.PlanCost(p));
  }
  // ES = -sum s_{p1,p2} X_p1 X_p2.
  for (const auto& [plans, saving] : problem.Savings()) {
    qubo.AddQuadratic(plans.first, plans.second, -saving);
  }
  encoding.qubo = std::move(qubo).Build();
  return encoding;
}

}  // namespace qopt
