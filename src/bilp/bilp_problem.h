#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace qopt {

/// Binary integer linear program in equality form (Sec. 6.1.3 — all
/// inequalities have already been converted with slack variables):
///
///   minimize   c^T x     subject to   S x = b,   x in {0,1}^N.
///
/// This is the intermediate representation between the join-ordering MILP
/// model (Trummer & Koch [16]) and the Ising/QUBO form (Lucas [20]).
class BilpProblem {
 public:
  /// One equality constraint: sum of coeff * x_var == rhs.
  struct Constraint {
    std::vector<std::pair<int, double>> terms;
    double rhs = 0.0;
  };

  BilpProblem() = default;

  /// Adds a binary variable with the given objective coefficient; returns
  /// its index. Objective coefficients must be >= 0 (required by the
  /// penalty-weight rule Eq. 43/44).
  int AddVariable(double objective_coefficient);

  /// Adds an equality constraint (all variable indices must exist).
  void AddConstraint(Constraint constraint);

  int NumVariables() const { return static_cast<int>(objective_.size()); }
  int NumConstraints() const { return static_cast<int>(constraints_.size()); }

  double ObjectiveCoefficient(int i) const;
  const std::vector<Constraint>& Constraints() const { return constraints_; }

  /// Sum of all objective coefficients (the C of Eq. 43).
  double ObjectiveUpperBound() const;

  /// Objective value of an assignment.
  double ObjectiveValue(const std::vector<std::uint8_t>& bits) const;

  /// True iff every constraint holds within `tolerance`.
  bool IsFeasible(const std::vector<std::uint8_t>& bits,
                  double tolerance = 1e-6) const;

  /// Smallest representable coefficient step (the precision factor omega
  /// of Sec. 6.1.3/6.1.4); used to derive the QUBO penalty weight.
  double Granularity() const { return granularity_; }
  void SetGranularity(double granularity);

 private:
  std::vector<double> objective_;
  std::vector<Constraint> constraints_;
  double granularity_ = 1.0;
};

}  // namespace qopt
