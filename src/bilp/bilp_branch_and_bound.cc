#include "bilp/bilp_branch_and_bound.h"

#include <limits>

#include "common/check.h"

namespace qopt {
namespace {

/// Hard cap on explored nodes. When the cap is hit the best incumbent
/// found so far is returned (or nullopt if none).
constexpr std::uint64_t kMaxNodes = 50'000'000;
/// Slack allowed when comparing constraint sides and objectives.
constexpr double kTolerance = 1e-6;

class Solver {
 public:
  explicit Solver(const BilpProblem& bilp) : bilp_(bilp) {
    const int n = bilp.NumVariables();
    const int m = bilp.NumConstraints();
    lhs_.assign(static_cast<std::size_t>(m), 0.0);
    min_add_.assign(static_cast<std::size_t>(m), 0.0);
    max_add_.assign(static_cast<std::size_t>(m), 0.0);
    rhs_.assign(static_cast<std::size_t>(m), 0.0);
    terms_of_var_.assign(static_cast<std::size_t>(n), {});
    for (int j = 0; j < m; ++j) {
      const auto& constraint = bilp.Constraints()[static_cast<std::size_t>(j)];
      rhs_[static_cast<std::size_t>(j)] = constraint.rhs;
      for (const auto& [var, coeff] : constraint.terms) {
        terms_of_var_[static_cast<std::size_t>(var)].emplace_back(j, coeff);
        if (coeff < 0.0) {
          min_add_[static_cast<std::size_t>(j)] += coeff;
        } else {
          max_add_[static_cast<std::size_t>(j)] += coeff;
        }
      }
    }
    bits_.assign(static_cast<std::size_t>(n), 0);
  }

  std::optional<BilpSolution> Solve() {
    best_objective_ = std::numeric_limits<double>::infinity();
    Search(0, 0.0);
    if (best_objective_ == std::numeric_limits<double>::infinity()) {
      return std::nullopt;
    }
    BilpSolution solution;
    solution.bits = best_bits_;
    solution.objective = best_objective_;
    return solution;
  }

 private:
  bool Prunable() const {
    for (std::size_t j = 0; j < lhs_.size(); ++j) {
      if (lhs_[j] + max_add_[j] < rhs_[j] - kTolerance ||
          lhs_[j] + min_add_[j] > rhs_[j] + kTolerance) {
        return true;
      }
    }
    return false;
  }

  void Assign(int var, int value) {
    for (const auto& [j, coeff] : terms_of_var_[static_cast<std::size_t>(var)]) {
      if (coeff < 0.0) {
        min_add_[static_cast<std::size_t>(j)] -= coeff;
      } else {
        max_add_[static_cast<std::size_t>(j)] -= coeff;
      }
      if (value) lhs_[static_cast<std::size_t>(j)] += coeff;
    }
    bits_[static_cast<std::size_t>(var)] = static_cast<std::uint8_t>(value);
  }

  void Unassign(int var, int value) {
    for (const auto& [j, coeff] : terms_of_var_[static_cast<std::size_t>(var)]) {
      if (coeff < 0.0) {
        min_add_[static_cast<std::size_t>(j)] += coeff;
      } else {
        max_add_[static_cast<std::size_t>(j)] += coeff;
      }
      if (value) lhs_[static_cast<std::size_t>(j)] -= coeff;
    }
  }

  void Search(int var, double objective) {
    if (++nodes_ > kMaxNodes) return;
    if (objective >= best_objective_ - kTolerance) return;
    if (Prunable()) return;
    if (var == bilp_.NumVariables()) {
      best_objective_ = objective;
      best_bits_ = bits_;
      return;
    }
    // Objective coefficients are non-negative: try 0 first for better
    // incumbents early.
    for (int value : {0, 1}) {
      Assign(var, value);
      Search(var + 1,
             objective + (value ? bilp_.ObjectiveCoefficient(var) : 0.0));
      Unassign(var, value);
    }
  }

  const BilpProblem& bilp_;
  std::vector<double> lhs_, min_add_, max_add_, rhs_;
  std::vector<std::vector<std::pair<int, double>>> terms_of_var_;
  std::vector<std::uint8_t> bits_;
  std::vector<std::uint8_t> best_bits_;
  double best_objective_ = 0.0;
  std::uint64_t nodes_ = 0;
};

}  // namespace

std::optional<BilpSolution> SolveBilpBranchAndBound(const BilpProblem& bilp) {
  QOPT_CHECK(bilp.NumVariables() >= 1);
  Solver solver(bilp);
  return solver.Solve();
}

}  // namespace qopt
