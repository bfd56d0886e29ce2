#include "bilp/bilp_to_qubo.h"

#include "common/check.h"

namespace qopt {
namespace {

/// The objective scale B of H_B.
constexpr double kPenaltyB = 1.0;

}  // namespace

BilpQuboEncoding EncodeBilpAsQubo(const BilpProblem& bilp) {
  BilpQuboEncoding encoding;
  // Eq. 44: A > B * C / omega^2. The +1 keeps A strictly dominant even
  // for an all-zero objective.
  const double omega = bilp.Granularity();
  encoding.penalty_a =
      kPenaltyB * (bilp.ObjectiveUpperBound() + 1.0) / (omega * omega);

  QuboBuilder qubo(bilp.NumVariables());
  // H_B = B * sum c_i x_i.
  for (int i = 0; i < bilp.NumVariables(); ++i) {
    const double c = bilp.ObjectiveCoefficient(i);
    if (c != 0.0) qubo.AddLinear(i, kPenaltyB * c);
  }
  // H_A = A * sum_j (b_j - sum_i S_ji x_i)^2. Expanding (x_i^2 = x_i):
  //   b^2  - 2 b S_i x_i + S_i^2 x_i  (diagonal)  + 2 S_i S_k x_i x_k (i<k).
  // A term with S_i == 0 (a type-7 pao whose log-selectivity rounds to 0)
  // would add +-0 to every pair it is in. That changes no non-zero sum, and
  // Build() drops every zero one, so such terms skip the pair expansion:
  // on a 20-relation clique they are 93% of it.
  for (const auto& constraint : bilp.Constraints()) {
    const double b = constraint.rhs;
    qubo.AddOffset(encoding.penalty_a * b * b);
    const auto& terms = constraint.terms;
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const auto& [var_i, s_i] = terms[i];
      qubo.AddLinear(var_i, encoding.penalty_a * (s_i * s_i - 2.0 * b * s_i));
      if (s_i == 0.0) continue;
      for (std::size_t k = i + 1; k < terms.size(); ++k) {
        const auto& [var_k, s_k] = terms[k];
        if (s_k == 0.0) continue;
        QOPT_CHECK_MSG(var_i != var_k,
                       "constraint mentions a variable twice");
        qubo.AddQuadratic(var_i, var_k, 2.0 * encoding.penalty_a * s_i * s_k);
      }
    }
  }
  // Build() drops coefficients that cancelled exactly, which would
  // otherwise inflate the quadratic-term count the paper reports.
  encoding.qubo = std::move(qubo).Build();
  return encoding;
}

}  // namespace qopt
