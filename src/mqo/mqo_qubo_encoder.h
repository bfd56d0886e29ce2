#pragma once

#include "common/status.h"
#include "mqo/mqo_problem.h"
#include "qubo/qubo_model.h"

namespace qopt {

/// The QUBO encoding of an MQO problem after [9] (Sec. 5.1):
///
///   E = wL * EL + wM * EM + EC + ES
///
/// with one binary variable X_p per plan. EL = -sum X_p rewards selecting
/// plans, EM penalizes selecting two plans of the same query, EC adds the
/// plan costs and ES subtracts pairwise savings. The penalty weights
/// follow Eq. 34/35:
///   wL > max_p c_p,     wM > wL + max_p1 sum_p2 s_{p1,p2}.
struct MqoQuboEncoding {
  QuboModel qubo;
  double weight_l = 0.0;
  double weight_m = 0.0;
};

/// Encodes `problem`; the variable of plan p is QUBO variable p. Each
/// penalty-weight inequality is exceeded by 1. Aborts on invalid input —
/// internal callers only; external input goes through TryEncodeMqoAsQubo.
MqoQuboEncoding EncodeMqoAsQubo(const MqoProblem& problem);

/// Validates the input as a recoverable error (the boundary flavour for
/// problems built from external workload files / CLI flags), then
/// encodes. Never aborts on bad input.
StatusOr<MqoQuboEncoding> TryEncodeMqoAsQubo(const MqoProblem& problem);

}  // namespace qopt
