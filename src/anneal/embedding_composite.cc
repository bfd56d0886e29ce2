#include "anneal/embedding_composite.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "anneal/anneal_internal.h"
#include "common/check.h"
#include "qubo/conversions.h"
#include "qubo/ising_model.h"

namespace qopt {

EmbeddedProblem BuildEmbeddedProblem(const QuboModel& qubo,
                                     const SimpleGraph& topology,
                                     const Embedding& embedding,
                                     double chain_strength) {
  const IsingModel logical = QuboToIsing(qubo);
  const int num_logical = qubo.NumVariables();
  QOPT_CHECK(static_cast<int>(embedding.chains.size()) == num_logical);

  if (chain_strength <= 0.0) {
    double scale = 0.0;
    for (int i = 0; i < logical.NumSpins(); ++i) {
      scale = std::max(scale, std::abs(logical.Field(i)));
    }
    for (const auto& [edge, j] : logical.Couplings()) {
      (void)edge;
      scale = std::max(scale, std::abs(j));
    }
    chain_strength = std::max(1.0, 1.5 * scale);
  }

  // Dense renumbering of the physical qubits actually used.
  EmbeddedProblem problem;
  std::vector<int> phys_to_dense(
      static_cast<std::size_t>(topology.NumVertices()), -1);
  std::vector<int> owner(static_cast<std::size_t>(topology.NumVertices()), -1);
  int num_dense = 0;
  problem.chains.resize(static_cast<std::size_t>(num_logical));
  for (int u = 0; u < num_logical; ++u) {
    for (int p : embedding.chains[static_cast<std::size_t>(u)]) {
      problem.chains[static_cast<std::size_t>(u)].push_back(num_dense);
      phys_to_dense[static_cast<std::size_t>(p)] = num_dense++;
      owner[static_cast<std::size_t>(p)] = u;
    }
  }

  IsingModel physical(num_dense);
  // Linear biases: split evenly over the chain.
  for (int u = 0; u < num_logical; ++u) {
    const auto& chain = problem.chains[static_cast<std::size_t>(u)];
    const double share =
        logical.Field(u) / static_cast<double>(chain.size());
    if (share != 0.0) {
      for (int d : chain) physical.AddField(d, share);
    }
  }
  // Logical couplings: split evenly over the available physical couplers;
  // chain couplers get the ferromagnetic chain strength.
  for (int u = 0; u < num_logical; ++u) {
    for (int p : embedding.chains[static_cast<std::size_t>(u)]) {
      for (int q : topology.Neighbors(p)) {
        if (q < p) continue;  // visit each physical edge once
        const int v = owner[static_cast<std::size_t>(q)];
        if (v == -1) continue;
        if (v == u) {
          physical.AddCoupling(phys_to_dense[static_cast<std::size_t>(p)],
                               phys_to_dense[static_cast<std::size_t>(q)],
                               -chain_strength);
        }
      }
    }
  }
  for (const auto& [edge, j] : logical.Couplings()) {
    if (j == 0.0) continue;
    const auto& chain_u = embedding.chains[static_cast<std::size_t>(edge.first)];
    // Collect the physical couplers between the two chains.
    std::vector<std::pair<int, int>> couplers;
    for (int p : chain_u) {
      for (int q : topology.Neighbors(p)) {
        if (owner[static_cast<std::size_t>(q)] == edge.second) {
          couplers.emplace_back(p, q);
        }
      }
    }
    QOPT_CHECK_MSG(!couplers.empty(), "embedding lost a logical coupling");
    const double share = j / static_cast<double>(couplers.size());
    for (const auto& [p, q] : couplers) {
      physical.AddCoupling(phys_to_dense[static_cast<std::size_t>(p)],
                           phys_to_dense[static_cast<std::size_t>(q)], share);
    }
  }
  problem.qubo = IsingToQubo(physical);
  return problem;
}

namespace {

// The checks both entry points make before they search or anneal.
Status CheckEmbeddedSolve(const QuboModel& qubo,
                          const EmbeddedSolveOptions& options) {
  if (qubo.NumVariables() < 1) {
    return InvalidArgumentError("QUBO has no variables");
  }
  if (options.anneal.num_reads < 1 || options.anneal.num_sweeps < 1) {
    return InvalidArgumentError(
        "embedded SA needs num_reads >= 1 and num_sweeps >= 1");
  }
  return OkStatus();
}

// Anneals the physical problem of `qubo` under `embedding` and unembeds
// the best sample by majority vote per chain.
StatusOr<EmbeddedSolveResult> SolveOnEmbedding(
    const QuboModel& qubo, const SimpleGraph& topology, Embedding embedding,
    const EmbeddedSolveOptions& options) {
  const EmbeddedProblem problem = BuildEmbeddedProblem(
      qubo, topology, embedding, options.chain_strength);
  AnnealOptions anneal_options = options.anneal;
  // Whole-chain cluster moves keep logical flips possible even when the
  // ferromagnetic chain couplings freeze individual qubits.
  anneal_options.flip_groups = problem.chains;
  QOPT_ASSIGN_OR_RETURN(
      const AnnealResult anneal,
      TrySolveQuboWithAnnealing(problem.qubo, anneal_options));

  const int n = qubo.NumVariables();
  EmbeddedSolveResult result;
  result.bits.assign(static_cast<std::size_t>(n), 0);
  int broken_chains = 0;
  for (int u = 0; u < n; ++u) {
    const auto& chain = problem.chains[static_cast<std::size_t>(u)];
    int ones = 0;
    for (int d : chain) ones += anneal.best_bits[static_cast<std::size_t>(d)];
    const int size = static_cast<int>(chain.size());
    if (ones != 0 && ones != size) ++broken_chains;
    result.bits[static_cast<std::size_t>(u)] = 2 * ones >= size ? 1 : 0;
  }
  result.energy = qubo.Energy(result.bits);
  result.chain_break_fraction =
      static_cast<double>(broken_chains) / static_cast<double>(n);
  result.embedding = std::move(embedding);
  result.timed_out = anneal.timed_out;
  return result;
}

}  // namespace

StatusOr<EmbeddedSolveResult> TrySolveQuboOnTopology(
    const QuboModel& qubo, const SimpleGraph& topology,
    const EmbeddedSolveOptions& options) {
  // The annealing options are checked here, before the embedding search
  // spends its budget on a solve the annealer would refuse.
  QOPT_RETURN_IF_ERROR(CheckEmbeddedSolve(qubo, options));
  QOPT_ASSIGN_OR_RETURN(
      Embedding embedding,
      TryFindMinorEmbedding(qubo.InteractionGraph(), topology, options.embed));
  return SolveOnEmbedding(qubo, topology, std::move(embedding), options);
}

StatusOr<EmbeddedSolveResult> anneal_internal::TrySolveQuboOnFixedEmbedding(
    const QuboModel& qubo, const SimpleGraph& topology, Embedding embedding,
    const EmbeddedSolveOptions& options) {
  QOPT_RETURN_IF_ERROR(CheckEmbeddedSolve(qubo, options));
  std::string error;
  if (!ValidateEmbedding(qubo.InteractionGraph(), topology, embedding,
                         &error)) {
    return InvalidArgumentError("embedding does not fit the QUBO: " + error);
  }
  return SolveOnEmbedding(qubo, topology, std::move(embedding), options);
}

}  // namespace qopt
