#include "transpile/swap_router.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qopt {

StatusOr<RoutedCircuit> TryRouteCircuit(const QuantumCircuit& circuit,
                                        const CouplingMap& coupling,
                                        const std::vector<int>& initial_layout,
                                        Rng* rng,
                                        const RouterOptions& router_options) {
  QQO_TRACE_SPAN("transpile.route");
  QOPT_FAULT_POINT("transpile.route");
  const int num_logical = circuit.NumQubits();
  const int num_physical = coupling.NumQubits();
  QOPT_CHECK(static_cast<int>(initial_layout.size()) == num_logical);
  QOPT_CHECK(num_logical <= num_physical);
  QOPT_CHECK_MSG(coupling.IsConnected(), "device graph must be connected");

  std::vector<int> log_to_phys = initial_layout;
  std::vector<int> phys_to_log(static_cast<std::size_t>(num_physical), -1);
  for (int l = 0; l < num_logical; ++l) {
    const int p = log_to_phys[static_cast<std::size_t>(l)];
    QOPT_CHECK(p >= 0 && p < num_physical);
    QOPT_CHECK_MSG(phys_to_log[static_cast<std::size_t>(p)] == -1,
                   "layout maps two logical qubits to one physical qubit");
    phys_to_log[static_cast<std::size_t>(p)] = l;
  }

  RoutedCircuit result;
  result.circuit = QuantumCircuit(num_physical);
  result.initial_layout = initial_layout;

  auto apply_swap = [&](int pa, int pb) {
    result.circuit.Swap(pa, pb);
    const int la = phys_to_log[static_cast<std::size_t>(pa)];
    const int lb = phys_to_log[static_cast<std::size_t>(pb)];
    phys_to_log[static_cast<std::size_t>(pa)] = lb;
    phys_to_log[static_cast<std::size_t>(pb)] = la;
    if (la >= 0) log_to_phys[static_cast<std::size_t>(la)] = pb;
    if (lb >= 0) log_to_phys[static_cast<std::size_t>(lb)] = pa;
  };

  // Routes one two-qubit gate: brings the endpoints adjacent by swapping
  // along shortest paths (every move strictly reduces the distance, so
  // this terminates after Distance - 1 swaps), then emits the gate.
  // `lookahead` holds the logical qubit pairs of upcoming two-qubit gates;
  // among equally-good moves the one that also shortens those is chosen.
  auto route_gate = [&](Gate g,
                        const std::vector<std::pair<int, int>>& lookahead) {
    auto lookahead_score = [&](int moved_from, int moved_to) {
      // Distance sum over upcoming pairs if {moved_from, moved_to} swap.
      auto where = [&](int logical) {
        const int p = log_to_phys[static_cast<std::size_t>(logical)];
        if (p == moved_from) return moved_to;
        if (p == moved_to) return moved_from;
        return p;
      };
      int score = 0;
      for (const auto& [a, b] : lookahead) {
        score += coupling.Distance(where(a), where(b));
      }
      return score;
    };
    while (true) {
      const int pa = log_to_phys[static_cast<std::size_t>(g.qubit0)];
      const int pb = log_to_phys[static_cast<std::size_t>(g.qubit1)];
      const int dist = coupling.Distance(pa, pb);
      QOPT_CHECK(dist >= 1);
      if (dist == 1) break;
      // Candidate swaps: move either endpoint one step toward the other.
      std::vector<std::pair<int, int>> moves;
      for (int u : coupling.Graph().Neighbors(pa)) {
        if (coupling.Distance(u, pb) < dist) moves.emplace_back(pa, u);
      }
      for (int v : coupling.Graph().Neighbors(pb)) {
        if (coupling.Distance(pa, v) < dist) moves.emplace_back(pb, v);
      }
      QOPT_CHECK(!moves.empty());
      std::vector<std::pair<int, int>> ties;
      int best_score = std::numeric_limits<int>::max();
      for (const auto& move : moves) {
        const int score = lookahead_score(move.first, move.second);
        if (score < best_score) {
          best_score = score;
          ties.assign(1, move);
        } else if (score == best_score) {
          ties.push_back(move);
        }
      }
      const auto [x, y] = ties[rng->NextUint64(ties.size())];
      apply_swap(x, y);
    }
    g.qubit0 = log_to_phys[static_cast<std::size_t>(g.qubit0)];
    g.qubit1 = log_to_phys[static_cast<std::size_t>(g.qubit1)];
    result.circuit.Append(g);
  };

  const std::size_t lookahead_window =
      router_options.lookahead > 0
          ? static_cast<std::size_t>(router_options.lookahead)
          : 0;
  // Upcoming two-qubit logical pairs starting at gate index `from`.
  auto upcoming_pairs = [&](const std::vector<Gate>& all_gates,
                            std::size_t from) {
    std::vector<std::pair<int, int>> pairs;
    for (std::size_t k = from;
         k < all_gates.size() && pairs.size() < lookahead_window; ++k) {
      if (all_gates[k].NumQubits() == 2) {
        pairs.emplace_back(all_gates[k].qubit0, all_gates[k].qubit1);
      }
    }
    return pairs;
  };

  // Gates diagonal in the Z basis commute with each other, so a run of
  // them (e.g. a QAOA cost layer) can be routed in any order; picking the
  // currently-closest pair first saves many swaps, which is what makes
  // transpiled QAOA layers much cheaper than their gate count suggests.
  auto is_diagonal = [&router_options](const Gate& g) {
    if (!router_options.commute_diagonal) return false;
    return g.kind == GateKind::kRz || g.kind == GateKind::kZ ||
           g.kind == GateKind::kRzz || g.kind == GateKind::kCz;
  };

  const auto& gates = circuit.Gates();
  std::size_t index = 0;
  // Reused across the diagonal-run iterations below so routing a long
  // commuting run never reallocates mid-loop.
  std::vector<std::pair<int, int>> lookahead;
  lookahead.reserve(lookahead_window);
  // QQO_LOOP(transpile.route)
  while (index < gates.size()) {
    QQO_COUNT("transpile.routed_gates", 1);
    // Per-gate budget check. A half-routed circuit cannot be salvaged, so
    // expiry aborts the whole routing rather than returning a prefix.
    QOPT_RETURN_IF_ERROR(router_options.deadline.Check());
    Gate g = gates[index];
    if (g.NumQubits() == 1) {
      if (!is_diagonal(g)) {
        g.qubit0 = log_to_phys[static_cast<std::size_t>(g.qubit0)];
        result.circuit.Append(g);
        ++index;
        continue;
      }
      // Fall through into commuting-run handling below.
    } else if (!is_diagonal(g)) {
      route_gate(g, upcoming_pairs(gates, index + 1));
      ++index;
      continue;
    }
    // Collect the maximal run of mutually commuting diagonal gates.
    std::size_t end = index;
    while (end < gates.size() && is_diagonal(gates[end])) ++end;
    std::vector<Gate> pending(gates.begin() + static_cast<std::ptrdiff_t>(index),
                              gates.begin() + static_cast<std::ptrdiff_t>(end));
    // Single-qubit diagonal gates are placement-independent; emit first.
    for (const Gate& d : pending) {
      if (d.NumQubits() == 1) {
        Gate mapped = d;
        mapped.qubit0 = log_to_phys[static_cast<std::size_t>(d.qubit0)];
        result.circuit.Append(mapped);
      }
    }
    std::erase_if(pending, [](const Gate& d) { return d.NumQubits() == 1; });
    // Greedily route the closest remaining pair first.
    // QQO_LOOP(transpile.route_diagonal)
    while (!pending.empty()) {
      QQO_COUNT("transpile.routed_gates", 1);
      QOPT_RETURN_IF_ERROR(router_options.deadline.Check());
      std::size_t best = 0;
      int best_dist = std::numeric_limits<int>::max();
      for (std::size_t k = 0; k < pending.size(); ++k) {
        const int pa =
            log_to_phys[static_cast<std::size_t>(pending[k].qubit0)];
        const int pb =
            log_to_phys[static_cast<std::size_t>(pending[k].qubit1)];
        const int dist = coupling.Distance(pa, pb);
        if (dist < best_dist) {
          best_dist = dist;
          best = k;
        }
      }
      lookahead.clear();
      for (std::size_t k = 0;
           k < pending.size() && lookahead.size() < lookahead_window; ++k) {
        if (k == best) continue;
        lookahead.emplace_back(pending[k].qubit0, pending[k].qubit1);
      }
      route_gate(pending[best], lookahead);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
    }
    index = end;
  }

  result.final_layout = log_to_phys;
  return result;
}

}  // namespace qopt
