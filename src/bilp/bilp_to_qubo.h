#pragma once

#include "bilp/bilp_problem.h"
#include "qubo/qubo_model.h"

namespace qopt {

/// QUBO form of a BILP problem after Lucas [20] (Sec. 6.1.4):
///
///   H = A * sum_j (b_j - sum_i S_ji x_i)^2  +  B * sum_i c_i x_i.
///
/// The ground state of H encodes the optimal feasible BILP assignment
/// provided A > B * C / omega^2 (Eq. 44), where C = sum_i c_i and omega is
/// the coefficient granularity.
struct BilpQuboEncoding {
  QuboModel qubo;
  double penalty_a = 0.0;  ///< The penalty weight A the encoding used.
};

/// Encodes `bilp` as a QUBO with objective scale B = 1 and A derived from
/// Eq. 44 with a safety margin.
BilpQuboEncoding EncodeBilpAsQubo(const BilpProblem& bilp);

}  // namespace qopt
