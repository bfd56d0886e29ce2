#include "mqo/mqo_bilp_encoder.h"

#include "common/check.h"

namespace qopt {

MqoBilpEncoding EncodeMqoAsBilp(const MqoProblem& problem) {
  QOPT_CHECK(problem.NumQueries() >= 1);
  MqoBilpEncoding encoding;
  BilpProblem& bilp = encoding.bilp;

  encoding.plan_var.resize(static_cast<std::size_t>(problem.NumPlans()));
  for (int p = 0; p < problem.NumPlans(); ++p) {
    encoding.plan_var[static_cast<std::size_t>(p)] =
        bilp.AddVariable(problem.PlanCost(p));
  }
  // One plan per query.
  for (int q = 0; q < problem.NumQueries(); ++q) {
    BilpProblem::Constraint c;
    for (int p : problem.PlansOfQuery(q)) {
      c.terms.emplace_back(encoding.plan_var[static_cast<std::size_t>(p)],
                           1.0);
    }
    c.rhs = 1.0;
    bilp.AddConstraint(std::move(c));
  }
  // Sharing indicators.
  int saving_index = 0;
  for (const auto& [plans, saving] : problem.Savings()) {
    const int x1 = encoding.plan_var[static_cast<std::size_t>(plans.first)];
    const int x2 = encoding.plan_var[static_cast<std::size_t>(plans.second)];
    const int y = bilp.AddVariable(0.0);
    const int z = bilp.AddVariable(saving);
    encoding.share_var.push_back(y);
    encoding.objective_offset += saving;
    // y <= x1 and y <= x2 (binary slack each).
    for (const int x : {x1, x2}) {
      const int slack = bilp.AddVariable(0.0);
      bilp.AddConstraint({{{y, 1.0}, {x, -1.0}, {slack, 1.0}}, 0.0});
    }
    // y >= x1 + x2 - 1  <=>  x1 + x2 - y + slack = 1.
    const int slack = bilp.AddVariable(0.0);
    bilp.AddConstraint(
        {{{x1, 1.0}, {x2, 1.0}, {y, -1.0}, {slack, 1.0}}, 1.0});
    // z = 1 - y.
    bilp.AddConstraint({{{z, 1.0}, {y, 1.0}}, 1.0});
    ++saving_index;
  }
  bilp.SetGranularity(1.0);  // all constraint coefficients are +-1
  return encoding;
}

bool DecodeMqoBilp(const MqoBilpEncoding& encoding, const MqoProblem& problem,
                   const std::vector<std::uint8_t>& bits,
                   std::vector<int>* selection) {
  QOPT_CHECK(selection != nullptr);
  QOPT_CHECK(static_cast<int>(bits.size()) == encoding.bilp.NumVariables());
  std::vector<std::uint8_t> plan_bits(
      static_cast<std::size_t>(problem.NumPlans()));
  for (int p = 0; p < problem.NumPlans(); ++p) {
    plan_bits[static_cast<std::size_t>(p)] =
        bits[static_cast<std::size_t>(
            encoding.plan_var[static_cast<std::size_t>(p)])];
  }
  return problem.DecodeBits(plan_bits, selection);
}

}  // namespace qopt
