#include "bilp/bilp_problem.h"

#include <cmath>

#include "common/check.h"

namespace qopt {

int BilpProblem::AddVariable(double objective_coefficient) {
  QOPT_CHECK_MSG(objective_coefficient >= 0.0,
                 "objective coefficients must be non-negative");
  objective_.push_back(objective_coefficient);
  return static_cast<int>(objective_.size()) - 1;
}

void BilpProblem::AddConstraint(Constraint constraint) {
  for (const auto& [var, coeff] : constraint.terms) {
    (void)coeff;
    QOPT_CHECK(var >= 0 && var < NumVariables());
  }
  constraints_.push_back(std::move(constraint));
}

double BilpProblem::ObjectiveCoefficient(int i) const {
  QOPT_CHECK(i >= 0 && i < NumVariables());
  return objective_[static_cast<std::size_t>(i)];
}

double BilpProblem::ObjectiveUpperBound() const {
  double total = 0.0;
  for (double c : objective_) total += c;
  return total;
}

double BilpProblem::ObjectiveValue(const std::vector<std::uint8_t>& bits) const {
  QOPT_CHECK(static_cast<int>(bits.size()) == NumVariables());
  double value = 0.0;
  for (int i = 0; i < NumVariables(); ++i) {
    if (bits[static_cast<std::size_t>(i)]) {
      value += objective_[static_cast<std::size_t>(i)];
    }
  }
  return value;
}

bool BilpProblem::IsFeasible(const std::vector<std::uint8_t>& bits,
                             double tolerance) const {
  QOPT_CHECK(static_cast<int>(bits.size()) == NumVariables());
  for (const Constraint& constraint : constraints_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : constraint.terms) {
      if (bits[static_cast<std::size_t>(var)]) lhs += coeff;
    }
    if (std::abs(lhs - constraint.rhs) > tolerance) return false;
  }
  return true;
}

void BilpProblem::SetGranularity(double granularity) {
  QOPT_CHECK(granularity > 0.0);
  granularity_ = granularity;
}

}  // namespace qopt
