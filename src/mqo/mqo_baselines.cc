#include "mqo/mqo_baselines.h"

#include <algorithm>

#include "common/check.h"
#include "common/random.h"

namespace qopt {
namespace {

/// Genetic baseline: chromosomes per generation.
constexpr int kPopulationSize = 40;
/// Probability that a child mixes both parents (uniform crossover) rather
/// than copying the first.
constexpr double kCrossoverRate = 0.9;
/// Per-gene probability of replacing the plan with a random one.
constexpr double kMutationRate = 0.05;
/// Contestants per tournament selection.
constexpr int kTournamentSize = 3;

MqoSolution MakeSolution(const MqoProblem& problem,
                         std::vector<int> selection) {
  MqoSolution solution;
  solution.cost = problem.SelectionCost(selection);
  solution.selection = std::move(selection);
  return solution;
}

std::vector<int> RandomSelection(const MqoProblem& problem, Rng* rng) {
  std::vector<int> selection(static_cast<std::size_t>(problem.NumQueries()));
  for (int q = 0; q < problem.NumQueries(); ++q) {
    const auto& plans = problem.PlansOfQuery(q);
    selection[static_cast<std::size_t>(q)] =
        plans[rng->NextUint64(plans.size())];
  }
  return selection;
}

}  // namespace

MqoSolution SolveMqoExhaustive(const MqoProblem& problem,
                               std::uint64_t max_combinations) {
  QOPT_CHECK(problem.NumQueries() >= 1);
  std::uint64_t combinations = 1;
  for (int q = 0; q < problem.NumQueries(); ++q) {
    combinations *= problem.PlansOfQuery(q).size();
    QOPT_CHECK_MSG(combinations <= max_combinations,
                   "MQO search space too large for exhaustive search");
  }
  // Odometer over per-query plan indices.
  std::vector<std::size_t> index(static_cast<std::size_t>(problem.NumQueries()),
                                 0);
  std::vector<int> selection(static_cast<std::size_t>(problem.NumQueries()));
  MqoSolution best;
  bool first = true;
  while (true) {
    for (int q = 0; q < problem.NumQueries(); ++q) {
      selection[static_cast<std::size_t>(q)] =
          problem.PlansOfQuery(q)[index[static_cast<std::size_t>(q)]];
    }
    const double cost = problem.SelectionCost(selection);
    if (first || cost < best.cost) {
      best.cost = cost;
      best.selection = selection;
      first = false;
    }
    int q = 0;
    while (q < problem.NumQueries()) {
      auto& i = index[static_cast<std::size_t>(q)];
      if (++i < problem.PlansOfQuery(q).size()) break;
      i = 0;
      ++q;
    }
    if (q == problem.NumQueries()) break;
  }
  return best;
}

MqoSolution SolveMqoGreedy(const MqoProblem& problem) {
  std::vector<int> selection(static_cast<std::size_t>(problem.NumQueries()));
  for (int q = 0; q < problem.NumQueries(); ++q) {
    const auto& plans = problem.PlansOfQuery(q);
    int best_plan = plans.front();
    for (int plan : plans) {
      if (problem.PlanCost(plan) < problem.PlanCost(best_plan)) {
        best_plan = plan;
      }
    }
    selection[static_cast<std::size_t>(q)] = best_plan;
  }
  return MakeSolution(problem, std::move(selection));
}

MqoSolution SolveMqoGenetic(const MqoProblem& problem,
                            const MqoGeneticOptions& options) {
  QOPT_CHECK(options.generations >= 1);
  Rng rng(options.seed);
  const int num_queries = problem.NumQueries();

  std::vector<std::vector<int>> population(
      static_cast<std::size_t>(kPopulationSize));
  std::vector<double> fitness(static_cast<std::size_t>(kPopulationSize));
  for (std::size_t i = 0; i < population.size(); ++i) {
    population[i] = RandomSelection(problem, &rng);
    fitness[i] = problem.SelectionCost(population[i]);
  }
  auto best_index = [&]() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < fitness.size(); ++i) {
      if (fitness[i] < fitness[best]) best = i;
    }
    return best;
  };
  auto tournament = [&]() {
    std::size_t winner = rng.NextUint64(population.size());
    for (int t = 1; t < kTournamentSize; ++t) {
      const std::size_t challenger = rng.NextUint64(population.size());
      if (fitness[challenger] < fitness[winner]) winner = challenger;
    }
    return winner;
  };

  for (int gen = 0; gen < options.generations; ++gen) {
    std::vector<std::vector<int>> next;
    next.reserve(population.size());
    next.push_back(population[best_index()]);  // elitism
    while (next.size() < population.size()) {
      const auto& parent_a = population[tournament()];
      const auto& parent_b = population[tournament()];
      std::vector<int> child(static_cast<std::size_t>(num_queries));
      const bool crossover = rng.NextBool(kCrossoverRate);
      for (int q = 0; q < num_queries; ++q) {
        const auto& source =
            crossover && rng.NextBool() ? parent_b : parent_a;
        child[static_cast<std::size_t>(q)] =
            source[static_cast<std::size_t>(q)];
        if (rng.NextBool(kMutationRate)) {
          const auto& plans = problem.PlansOfQuery(q);
          child[static_cast<std::size_t>(q)] =
              plans[rng.NextUint64(plans.size())];
        }
      }
      next.push_back(std::move(child));
    }
    population = std::move(next);
    for (std::size_t i = 0; i < population.size(); ++i) {
      fitness[i] = problem.SelectionCost(population[i]);
    }
  }
  const std::size_t best = best_index();
  return MakeSolution(problem, population[best]);
}

MqoSolution SolveMqoLocalSearch(const MqoProblem& problem, int restarts,
                                std::uint64_t seed) {
  QOPT_CHECK(restarts >= 1);
  Rng rng(seed);
  MqoSolution best;
  bool first = true;
  for (int r = 0; r < restarts; ++r) {
    std::vector<int> selection = RandomSelection(problem, &rng);
    double cost = problem.SelectionCost(selection);
    bool improved = true;
    while (improved) {
      improved = false;
      for (int q = 0; q < problem.NumQueries(); ++q) {
        for (int plan : problem.PlansOfQuery(q)) {
          const int current = selection[static_cast<std::size_t>(q)];
          if (plan == current) continue;
          selection[static_cast<std::size_t>(q)] = plan;
          const double candidate = problem.SelectionCost(selection);
          if (candidate < cost - 1e-12) {
            cost = candidate;
            improved = true;
          } else {
            selection[static_cast<std::size_t>(q)] = current;
          }
        }
      }
    }
    if (first || cost < best.cost) {
      best.cost = cost;
      best.selection = selection;
      first = false;
    }
  }
  return best;
}

}  // namespace qopt
