#pragma once

#include <cstdint>

#include "mqo/mqo_problem.h"

namespace qopt {

/// Parameters of the random MQO workload generator used for the Fig. 8/9
/// sweeps. Mirrors the problem classes of [9]: a fixed number of plans per
/// query (PPQ) and randomly sampled pairwise savings.
struct MqoGeneratorOptions {
  int num_queries = 3;
  int plans_per_query = 4;
  /// Plan execution costs are drawn uniformly from [cost_min, cost_max].
  double cost_min = 1.0;
  double cost_max = 50.0;
  /// Each cross-query plan pair receives a saving with this probability.
  /// Savings are drawn uniformly from [0.1, 0.8] times the smaller of the
  /// two plan costs (so a saving never exceeds the cheaper plan, keeping
  /// costs meaningful).
  double saving_density = 0.3;
  std::uint64_t seed = 0;
};

/// Generates a random MQO instance.
MqoProblem GenerateMqoProblem(const MqoGeneratorOptions& options);

/// The worked example of Tables 1 and 2 (three queries, eight plans;
/// locally optimal cost 26, globally optimal cost 21).
MqoProblem MakePaperExampleMqo();

}  // namespace qopt
