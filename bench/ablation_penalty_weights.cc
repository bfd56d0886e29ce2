// Ablation: the MQO penalty-weight rules (Eq. 34/35). Scales both
// penalties by a factor f and measures, over random instances, how often
// the exact QUBO ground state decodes to a valid / optimal plan selection.
// Expected: below f = 1 the ground state is frequently invalid (selecting
// zero or multiple plans per query); at and above f = 1 it is always the
// MQO optimum, confirming that the paper's inequalities are tight
// guarantees rather than tuning folklore.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "mqo/mqo_baselines.h"
#include "mqo/mqo_generator.h"
#include "qubo/brute_force_solver.h"
#include "qubo/qubo_model.h"

namespace {

using namespace qopt;

/// Builds the [9] QUBO with both penalty weights scaled by `factor`
/// relative to their Eq. 34/35 minima.
QuboModel EncodeWithScaledPenalties(const MqoProblem& problem,
                                    double factor) {
  double max_cost = 0.0;
  for (int p = 0; p < problem.NumPlans(); ++p) {
    max_cost = std::max(max_cost, problem.PlanCost(p));
  }
  std::vector<double> savings_per_plan(
      static_cast<std::size_t>(problem.NumPlans()), 0.0);
  for (const auto& [plans, saving] : problem.Savings()) {
    savings_per_plan[static_cast<std::size_t>(plans.first)] += saving;
    savings_per_plan[static_cast<std::size_t>(plans.second)] += saving;
  }
  double max_savings = 0.0;
  for (double s : savings_per_plan) max_savings = std::max(max_savings, s);
  const double weight_l = factor * (max_cost + 1.0);
  const double weight_m = factor * (max_cost + 1.0 + max_savings + 1.0);

  QuboBuilder qubo(problem.NumPlans());
  for (int p = 0; p < problem.NumPlans(); ++p) {
    qubo.AddLinear(p, -weight_l + problem.PlanCost(p));
  }
  for (int q = 0; q < problem.NumQueries(); ++q) {
    const auto& plans = problem.PlansOfQuery(q);
    for (std::size_t a = 0; a < plans.size(); ++a) {
      for (std::size_t b = a + 1; b < plans.size(); ++b) {
        qubo.AddQuadratic(plans[a], plans[b], weight_m);
      }
    }
  }
  for (const auto& [plans, saving] : problem.Savings()) {
    qubo.AddQuadratic(plans.first, plans.second, -saving);
  }
  return std::move(qubo).Build();
}

}  // namespace

int main() {
  using qopt_bench::PrintHeader;
  PrintHeader("Ablation", "MQO penalty weights (Eq. 34/35) vs validity");
  const int instances = qopt_bench::Samples(20);
  std::printf("(%d random 4x4 MQO instances per factor; exact ground "
              "states)\n\n",
              instances);

  TablePrinter table({"penalty scale f", "valid ground states",
                      "optimal ground states"});
  for (double factor : {0.25, 0.5, 0.75, 1.0, 1.5, 3.0}) {
    int valid = 0;
    int optimal = 0;
    for (int i = 0; i < instances; ++i) {
      MqoGeneratorOptions gen;
      gen.num_queries = 4;
      gen.plans_per_query = 4;
      gen.saving_density = 0.4;
      gen.seed = 900 + static_cast<std::uint64_t>(i);
      const MqoProblem problem = GenerateMqoProblem(gen);
      const QuboModel qubo = EncodeWithScaledPenalties(problem, factor);
      const BruteForceResult ground = TrySolveQuboBruteForce(qubo).value();
      std::vector<int> selection;
      if (!problem.DecodeBits(ground.best_bits, &selection)) continue;
      ++valid;
      if (std::abs(problem.SelectionCost(selection) -
                   SolveMqoExhaustive(problem).cost) < 1e-9) {
        ++optimal;
      }
    }
    table.AddRow({StrFormat("%.2f", factor),
                  StrFormat("%d / %d", valid, instances),
                  StrFormat("%d / %d", optimal, instances)});
  }
  table.Print();
  std::printf("\nf >= 1 must give 100%% valid and optimal decodes; weak\n"
              "penalties let invalid selections undercut valid ones.\n");
  return 0;
}
