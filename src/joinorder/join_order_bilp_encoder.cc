#include "joinorder/join_order_bilp_encoder.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/table_printer.h"

namespace qopt {
namespace {

/// Sum of the (count) largest base-10 log cardinalities: the worst-case
/// logarithmic cardinality mlc of an outer operand containing `count`
/// relations (Eq. 50).
double MaxLogCardinality(const std::vector<double>& cardinalities, int count) {
  std::vector<double> logs;
  logs.reserve(cardinalities.size());
  for (double c : cardinalities) logs.push_back(std::log10(c));
  std::sort(logs.begin(), logs.end(), std::greater<double>());
  double total = 0.0;
  for (int i = 0; i < count && i < static_cast<int>(logs.size()); ++i) {
    total += logs[static_cast<std::size_t>(i)];
  }
  return total;
}

/// Number of binary variables to represent a continuous slack with upper
/// bound `bound` at granularity `omega` (Eq. 52). When `exact` is set the
/// count is raised until the representable range actually covers `bound`.
int ExpansionBits(double bound, double omega, bool exact) {
  QOPT_CHECK(omega > 0.0);
  if (bound <= 0.0) return 1;
  int bits = static_cast<int>(std::floor(std::log2(bound / omega))) + 1;
  bits = std::max(bits, 1);
  if (exact) {
    while (omega * (std::pow(2.0, bits) - 1.0) < bound) ++bits;
  }
  return bits;
}

/// Input validation of the encoder as a recoverable error.
Status ValidateJoinOrderEncoderInput(const QueryGraph& graph,
                                     const JoinOrderEncoderOptions& options) {
  if (graph.NumRelations() < 2) {
    return InvalidArgumentError(
        StrFormat("need at least two relations to join, got %d",
                  graph.NumRelations()));
  }
  // 0.1^p underflows to 0 near p = 323 (breaking the omega > 0 invariant)
  // and the binary slack expansions grow linearly in p; 16 decimals is
  // already far beyond the paper's precision sweep (<= 4).
  if (options.precision_decimals < 0 || options.precision_decimals > 16) {
    return OutOfRangeError(
        StrFormat("precision_decimals must be in [0, 16], got %d",
                  options.precision_decimals));
  }
  for (std::size_t r = 0; r < options.thresholds.size(); ++r) {
    const double threshold = options.thresholds[r];
    if (!std::isfinite(threshold) || threshold < 1.0) {
      return OutOfRangeError(StrFormat(
          "thresholds[%zu]: must be a finite value >= 1, got %g", r,
          threshold));
    }
    if (r > 0 && threshold <= options.thresholds[r - 1]) {
      return InvalidArgumentError(StrFormat(
          "thresholds[%zu]: thresholds must be strictly ascending", r));
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<JoinOrderEncoding> TryEncodeJoinOrderAsBilp(
    const QueryGraph& graph, const JoinOrderEncoderOptions& options) {
  QOPT_RETURN_IF_ERROR(ValidateJoinOrderEncoderInput(graph, options));
  return EncodeJoinOrderAsBilp(graph, options);
}

JoinOrderEncoding EncodeJoinOrderAsBilp(const QueryGraph& graph,
                                        const JoinOrderEncoderOptions& options) {
  const int num_relations = graph.NumRelations();
  QOPT_CHECK_MSG(num_relations >= 2, "need at least two relations to join");
  const int num_joins = num_relations - 1;
  const int num_predicates = graph.NumPredicates();
  const int num_thresholds = static_cast<int>(options.thresholds.size());
  QOPT_CHECK(options.precision_decimals >= 0);
  for (int r = 0; r < num_thresholds; ++r) {
    QOPT_CHECK_MSG(options.thresholds[static_cast<std::size_t>(r)] >= 1.0,
                   "thresholds must be >= 1");
    if (r > 0) {
      QOPT_CHECK_MSG(options.thresholds[static_cast<std::size_t>(r)] >
                         options.thresholds[static_cast<std::size_t>(r - 1)],
                     "thresholds must be strictly ascending");
    }
  }

  JoinOrderEncoding encoding;
  encoding.num_relations = num_relations;
  encoding.num_joins = num_joins;
  encoding.omega = std::pow(10.0, -options.precision_decimals);
  const double omega = encoding.omega;
  auto round_to_grid = [omega](double x) {
    return std::round(x / omega) * omega;
  };

  BilpProblem& bilp = encoding.bilp;
  bilp.SetGranularity(omega);

  // --- Logical variables -------------------------------------------------
  auto make_grid = [&](int rows, int cols) {
    return std::vector<std::vector<int>>(
        static_cast<std::size_t>(rows),
        std::vector<int>(static_cast<std::size_t>(cols), -1));
  };
  encoding.tio = make_grid(num_relations, num_joins);
  encoding.tii = make_grid(num_relations, num_joins);
  encoding.pao = make_grid(num_predicates, num_joins);
  encoding.cto = make_grid(num_thresholds, num_joins);

  for (int t = 0; t < num_relations; ++t) {
    for (int j = 0; j < num_joins; ++j) {
      encoding.tio[t][j] = bilp.AddVariable(0.0);
      encoding.tii[t][j] = bilp.AddVariable(0.0);
    }
  }
  // pao_{p,0} is always pruned: the outer of the first join is a single
  // relation, so no two-relation predicate can apply (Sec. 6.2.2).
  for (int p = 0; p < num_predicates; ++p) {
    for (int j = 1; j < num_joins; ++j) {
      encoding.pao[p][j] = bilp.AddVariable(0.0);
    }
  }
  // cto_{r,0} is always pruned: the first outer operand is a base relation
  // and contributes no intermediate result. Optionally prune thresholds
  // the worst-case cardinality can never reach.
  std::vector<double> log_thresholds(static_cast<std::size_t>(num_thresholds));
  for (int r = 0; r < num_thresholds; ++r) {
    log_thresholds[static_cast<std::size_t>(r)] = round_to_grid(
        std::log10(options.thresholds[static_cast<std::size_t>(r)]));
  }
  std::vector<double> cardinalities(static_cast<std::size_t>(num_relations));
  for (int t = 0; t < num_relations; ++t) {
    cardinalities[static_cast<std::size_t>(t)] = graph.Cardinality(t);
  }
  // Worst-case logarithmic outer cardinality per join. The paper's bound
  // (Eq. 50) uses the exact logarithms; the safe variant bounds the sum of
  // the *rounded* coefficients actually present in the constraints, which
  // can exceed the rounded exact sum by up to (j+1) * omega / 2.
  std::vector<double> mlc(static_cast<std::size_t>(num_joins));
  std::vector<double> rounded_logs(static_cast<std::size_t>(num_relations));
  for (int t = 0; t < num_relations; ++t) {
    rounded_logs[static_cast<std::size_t>(t)] =
        round_to_grid(std::log10(graph.Cardinality(t)));
  }
  std::sort(rounded_logs.begin(), rounded_logs.end(), std::greater<double>());
  for (int j = 0; j < num_joins; ++j) {
    if (options.safe_slack_bounds) {
      double sum = 0.0;
      for (int i = 0; i <= j; ++i) {
        sum += rounded_logs[static_cast<std::size_t>(i)];
      }
      mlc[static_cast<std::size_t>(j)] = sum;
    } else {
      mlc[static_cast<std::size_t>(j)] =
          round_to_grid(MaxLogCardinality(cardinalities, j + 1));
    }
  }
  for (int r = 0; r < num_thresholds; ++r) {
    const double delta_theta =
        r == 0 ? options.thresholds[0]
               : options.thresholds[static_cast<std::size_t>(r)] -
                     options.thresholds[static_cast<std::size_t>(r - 1)];
    for (int j = 1; j < num_joins; ++j) {
      if (options.prune_unreachable_cto &&
          mlc[static_cast<std::size_t>(j)] <=
              log_thresholds[static_cast<std::size_t>(r)] + 1e-12) {
        continue;
      }
      encoding.cto[r][j] = bilp.AddVariable(delta_theta);
    }
  }
  encoding.num_logical = bilp.NumVariables();

  // --- Constraint types 1-6 (single-bit slacks where needed) -------------
  auto add_single_slack = [&]() {
    ++encoding.num_single_slacks;
    return bilp.AddVariable(0.0);
  };

  {  // Type 1: exactly one relation opens the join tree.
    BilpProblem::Constraint c;
    for (int t = 0; t < num_relations; ++t) {
      c.terms.emplace_back(encoding.tio[t][0], 1.0);
    }
    c.rhs = 1.0;
    bilp.AddConstraint(std::move(c));
  }
  for (int j = 0; j < num_joins; ++j) {  // Type 2: one inner relation.
    BilpProblem::Constraint c;
    for (int t = 0; t < num_relations; ++t) {
      c.terms.emplace_back(encoding.tii[t][j], 1.0);
    }
    c.rhs = 1.0;
    bilp.AddConstraint(std::move(c));
  }
  for (int j = 0; j < num_joins; ++j) {  // Type 3: tio + tii <= 1.
    for (int t = 0; t < num_relations; ++t) {
      BilpProblem::Constraint c;
      c.terms.emplace_back(encoding.tio[t][j], 1.0);
      c.terms.emplace_back(encoding.tii[t][j], 1.0);
      c.terms.emplace_back(add_single_slack(), 1.0);
      c.rhs = 1.0;
      bilp.AddConstraint(std::move(c));
    }
  }
  for (int j = 1; j < num_joins; ++j) {  // Type 4: outer accumulates.
    for (int t = 0; t < num_relations; ++t) {
      BilpProblem::Constraint c;
      c.terms.emplace_back(encoding.tio[t][j], 1.0);
      c.terms.emplace_back(encoding.tii[t][j - 1], -1.0);
      c.terms.emplace_back(encoding.tio[t][j - 1], -1.0);
      c.rhs = 0.0;
      bilp.AddConstraint(std::move(c));
    }
  }
  const auto& predicates = graph.Predicates();
  for (int p = 0; p < num_predicates; ++p) {  // Types 5 and 6.
    for (int j = 1; j < num_joins; ++j) {
      for (const int rel : {predicates[static_cast<std::size_t>(p)].rel1,
                            predicates[static_cast<std::size_t>(p)].rel2}) {
        BilpProblem::Constraint c;
        c.terms.emplace_back(encoding.pao[p][j], 1.0);
        c.terms.emplace_back(encoding.tio[rel][j], -1.0);
        c.terms.emplace_back(add_single_slack(), 1.0);
        c.rhs = 0.0;
        bilp.AddConstraint(std::move(c));
      }
    }
  }

  // --- Constraint type 7 (threshold activation, expanded slacks) ---------
  // Worst-case negative contribution of the predicate terms: all
  // log-selectivities are <= 0, so lco can undershoot 0 by up to neg_sum.
  double neg_sum = 0.0;
  for (const auto& pred : predicates) {
    neg_sum += -round_to_grid(std::log10(pred.selectivity));
  }
  for (int r = 0; r < num_thresholds; ++r) {
    const double log_theta = log_thresholds[static_cast<std::size_t>(r)];
    for (int j = 1; j < num_joins; ++j) {
      if (encoding.cto[r][j] < 0) continue;  // pruned
      // Big-M: just large enough to satisfy the constraint whenever the
      // threshold is exceeded (Eq. 51); the safe variant also covers
      // negative log-selectivity undershoot.
      double big_m = mlc[static_cast<std::size_t>(j)] - log_theta;
      if (options.safe_slack_bounds) big_m += neg_sum;
      big_m = std::max(round_to_grid(big_m), omega);
      // Slack upper bound (Eq. 48 uses C = mlc in the paper's setting).
      double slack_bound = options.safe_slack_bounds
                               ? log_theta + big_m + neg_sum
                               : mlc[static_cast<std::size_t>(j)];
      const int bits =
          ExpansionBits(slack_bound, omega, options.safe_slack_bounds);

      BilpProblem::Constraint c;
      for (int t = 0; t < num_relations; ++t) {
        c.terms.emplace_back(
            encoding.tio[t][j],
            round_to_grid(std::log10(graph.Cardinality(t))));
      }
      for (int p = 0; p < num_predicates; ++p) {
        c.terms.emplace_back(
            encoding.pao[p][j],
            round_to_grid(
                std::log10(predicates[static_cast<std::size_t>(p)].selectivity)));
      }
      c.terms.emplace_back(encoding.cto[r][j], -big_m);
      for (int i = 1; i <= bits; ++i) {
        const int slack = bilp.AddVariable(0.0);
        ++encoding.num_expansion_slacks;
        c.terms.emplace_back(slack, omega * std::pow(2.0, i - 1));
      }
      c.rhs = log_theta;
      bilp.AddConstraint(std::move(c));
    }
  }

  return encoding;
}

bool DecodeJoinOrder(const JoinOrderEncoding& encoding,
                     const std::vector<std::uint8_t>& bits,
                     std::vector<int>* order) {
  QOPT_CHECK(order != nullptr);
  QOPT_CHECK(static_cast<int>(bits.size()) == encoding.bilp.NumVariables());
  const int num_relations = encoding.num_relations;
  order->assign(static_cast<std::size_t>(num_relations), -1);
  std::vector<bool> used(static_cast<std::size_t>(num_relations), false);

  auto pick_unique = [&](int position, const auto& var_of_relation) {
    int chosen = -1;
    for (int t = 0; t < num_relations; ++t) {
      if (!bits[static_cast<std::size_t>(var_of_relation(t))]) continue;
      if (chosen != -1) return false;  // more than one relation selected
      chosen = t;
    }
    if (chosen == -1 || used[static_cast<std::size_t>(chosen)]) return false;
    used[static_cast<std::size_t>(chosen)] = true;
    (*order)[static_cast<std::size_t>(position)] = chosen;
    return true;
  };

  if (!pick_unique(0, [&](int t) { return encoding.tio[t][0]; })) return false;
  for (int j = 0; j < encoding.num_joins; ++j) {
    if (!pick_unique(j + 1, [&](int t) { return encoding.tii[t][j]; })) {
      return false;
    }
  }
  return true;
}

JoinOrderResourceCounts CountJoinOrderQubits(
    int num_relations, int num_predicates, int num_thresholds, double omega,
    const std::vector<double>& cardinalities) {
  QOPT_CHECK(num_relations >= 2);
  QOPT_CHECK(num_predicates >= 0);
  QOPT_CHECK(num_thresholds >= 0);
  QOPT_CHECK(omega > 0.0);
  const long long t = num_relations;
  const long long j = t - 1;
  const long long p = num_predicates;
  const long long r = num_thresholds;
  JoinOrderResourceCounts counts;
  counts.logical = j * (2 * t + p + r) - p - r;        // Eq. 46
  counts.single_slack = j * (t + 2 * p) - 2 * p;       // Eq. 47
  counts.expansion_slack = 0;                          // Eq. 53
  for (long long join = 1; join < j; ++join) {         // joins 2..J, 1-based
    const double mlc =
        MaxLogCardinality(cardinalities, static_cast<int>(join) + 1);
    counts.expansion_slack +=
        r * ExpansionBits(mlc, omega, /*exact=*/false);
  }
  counts.total = counts.logical + counts.single_slack + counts.expansion_slack;
  return counts;
}

JoinOrderResourceCounts CountJoinOrderQubits(int num_relations,
                                             int num_predicates,
                                             int num_thresholds, double omega,
                                             double uniform_cardinality) {
  return CountJoinOrderQubits(
      num_relations, num_predicates, num_thresholds, omega,
      std::vector<double>(static_cast<std::size_t>(num_relations),
                          uniform_cardinality));
}

}  // namespace qopt
