#pragma once

#include <cstdint>

#include "mqo/mqo_problem.h"

namespace qopt {

/// A concrete MQO solution: one global plan id per query plus its cost.
struct MqoSolution {
  std::vector<int> selection;
  double cost = 0.0;
};

/// Exhaustive search over the product of plan choices (search space
/// O(ppq^queries), Sec. 2); refuses problems with more than
/// `max_combinations` combinations.
MqoSolution SolveMqoExhaustive(const MqoProblem& problem,
                               std::uint64_t max_combinations = 1u << 24);

/// Locally optimal baseline: cheapest plan per query, ignoring savings
/// (the "26 vs 21" comparison of the paper's example).
MqoSolution SolveMqoGreedy(const MqoProblem& problem);

/// Options for the genetic-algorithm baseline (after Bayir et al. [14]).
struct MqoGeneticOptions {
  int generations = 200;
  std::uint64_t seed = 0;
};

/// Genetic algorithm over selection chromosomes (population 40, elitist)
/// with tournament selection (size 3), uniform crossover (rate 0.9) and
/// per-gene mutation (rate 0.05).
MqoSolution SolveMqoGenetic(const MqoProblem& problem,
                            const MqoGeneticOptions& options = {});

/// First-improvement hill climbing with random restarts: repeatedly tries
/// to improve one query's plan choice.
MqoSolution SolveMqoLocalSearch(const MqoProblem& problem, int restarts = 10,
                                std::uint64_t seed = 0);

}  // namespace qopt
