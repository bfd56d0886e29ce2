#pragma once

#include <cstdint>
#include <vector>

#include "bilp/bilp_problem.h"
#include "common/status.h"
#include "joinorder/query_graph.h"

namespace qopt {

/// Options for the join-ordering -> BILP transformation (Sec. 6.1.2/6.1.3,
/// after Trummer & Koch [16]).
struct JoinOrderEncoderOptions {
  /// Threshold values theta_r (ascending, each >= 1) used to approximate
  /// intermediate cardinalities; the objective charges
  /// delta_theta_r = theta_r - theta_{r-1} once a threshold is exceeded.
  std::vector<double> thresholds = {10.0};
  /// Precision p: omega = 0.1^p is the coefficient granularity used to
  /// round logarithms and to discretize the continuous slack variables.
  int precision_decimals = 0;
  /// Cardinality-based pruning of cto variables/constraints that can never
  /// trigger (Sec. 6.2.2). Off by default: the paper's scaling figures
  /// explicitly measure the unpruned, "more general" model.
  bool prune_unreachable_cto = false;
  /// When true, the big-M constants and slack ranges are widened so the
  /// encoding is provably exact even with very selective predicates
  /// (negative log-selectivities can push the outer cardinality below the
  /// paper's bound of Eq. 48). When false, the paper's bounds (Eq. 50-53)
  /// are used verbatim, which also makes the variable counts match
  /// Fig. 11/12 and Table 4.
  bool safe_slack_bounds = false;
};

/// The encoded BILP together with the variable-index bookkeeping needed to
/// decode solutions and to report resource statistics.
struct JoinOrderEncoding {
  BilpProblem bilp;
  int num_relations = 0;
  int num_joins = 0;
  double omega = 1.0;
  /// tio[t][j] / tii[t][j]: variable indices (always present).
  std::vector<std::vector<int>> tio;
  std::vector<std::vector<int>> tii;
  /// pao[p][j] and cto[r][j]: -1 where pruned (always at j = 0).
  std::vector<std::vector<int>> pao;
  std::vector<std::vector<int>> cto;
  int num_logical = 0;           ///< tio + tii + pao + cto variables.
  int num_single_slacks = 0;     ///< one-bit slacks (constraint types 3,5,6).
  int num_expansion_slacks = 0;  ///< binary-expansion slacks (type 7).
};

/// Builds the BILP model: variables tio/tii/pao/cto plus slack variables,
/// constraint types 1-7, and the threshold objective (Eq. 38). Aborts on
/// invalid input — internal callers only; external input (workload files,
/// CLI thresholds/precision flags) goes through TryEncodeJoinOrderAsBilp.
JoinOrderEncoding EncodeJoinOrderAsBilp(
    const QueryGraph& graph, const JoinOrderEncoderOptions& options = {});

/// Validates the input as a recoverable error (at least two relations,
/// thresholds finite / >= 1 / strictly ascending, precision in a range
/// that keeps omega = 0.1^p positive and the slack expansions bounded),
/// then encodes. Never aborts on bad input.
StatusOr<JoinOrderEncoding> TryEncodeJoinOrderAsBilp(
    const QueryGraph& graph, const JoinOrderEncoderOptions& options = {});

/// Reads the join order out of a BILP assignment: order[0] is the relation
/// with tio_{t,0} = 1 and order[j+1] the relation with tii_{t,j} = 1.
/// Returns false if the assignment does not describe a permutation.
bool DecodeJoinOrder(const JoinOrderEncoding& encoding,
                     const std::vector<std::uint8_t>& bits,
                     std::vector<int>* order);

/// Closed-form upper bounds on the variable counts (Eq. 45-54), used by
/// the Fig. 11/12 scaling benchmarks. `cardinalities` enter only through
/// the worst-case logarithmic outer cardinality mlc_j.
struct JoinOrderResourceCounts {
  long long logical = 0;          ///< Eq. 46.
  long long single_slack = 0;     ///< Eq. 47.
  long long expansion_slack = 0;  ///< Eq. 53.
  long long total = 0;            ///< Eq. 54.
};

JoinOrderResourceCounts CountJoinOrderQubits(
    int num_relations, int num_predicates, int num_thresholds, double omega,
    const std::vector<double>& cardinalities);

/// Convenience overload for uniform cardinalities.
JoinOrderResourceCounts CountJoinOrderQubits(int num_relations,
                                             int num_predicates,
                                             int num_thresholds, double omega,
                                             double uniform_cardinality = 10.0);

}  // namespace qopt
