#pragma once

#include <vector>

#include "circuit/quantum_circuit.h"
#include "common/deadline.h"
#include "common/random.h"
#include "common/status.h"
#include "transpile/coupling_map.h"

namespace qopt {

/// Result of routing a logical circuit onto a device.
struct RoutedCircuit {
  /// Circuit over *physical* qubits (NumQubits() == device size) in which
  /// every two-qubit gate acts on a directly coupled pair; SWAP gates have
  /// been inserted where needed.
  QuantumCircuit circuit;
  /// initial_layout[logical] = physical qubit the logical qubit starts on.
  std::vector<int> initial_layout;
  /// final_layout[logical] = physical qubit holding the logical qubit's
  /// state after the circuit (changes when swaps were inserted).
  std::vector<int> final_layout;
};

/// Routing heuristics toggles (exposed for the ablation benchmarks).
struct RouterOptions {
  /// Treat runs of Z-diagonal gates (RZ/Z/RZZ/CZ — e.g. a QAOA cost
  /// layer) as freely reorderable and route the closest pair first.
  bool commute_diagonal = true;
  /// Number of upcoming two-qubit gates considered when breaking ties
  /// between distance-reducing swaps (0 = pure random tie-break).
  int lookahead = 8;
  /// Wall-clock budget, checked once per routed gate. Unbounded by
  /// default.
  Deadline deadline;
};

/// Stochastic greedy swap routing (the randomized heuristic standing in
/// for Qiskit's StochasticSwap pass, whose per-seed variance the paper
/// averages over 20 transpilations). For every two-qubit gate whose
/// endpoints are not adjacent, SWAPs are inserted along a shortest path,
/// choosing among distance-reducing moves by lookahead score and
/// uniformly at random among ties.
///
/// The "transpile.route" fault point fires once per invocation, and
/// `router_options.deadline` is checked once per routed gate — a partially
/// routed circuit is useless, so expiry returns kDeadlineExceeded (or
/// kCancelled) instead of a truncated result.
StatusOr<RoutedCircuit> TryRouteCircuit(
    const QuantumCircuit& circuit, const CouplingMap& coupling,
    const std::vector<int>& initial_layout, Rng* rng,
    const RouterOptions& router_options = {});

}  // namespace qopt
