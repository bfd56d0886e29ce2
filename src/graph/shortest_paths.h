#pragma once

#include <limits>
#include <vector>

#include "graph/simple_graph.h"

namespace qopt {

/// Sentinel distance for unreachable vertices.
inline constexpr double kInfiniteDistance =
    std::numeric_limits<double>::infinity();

/// Result of a single-source shortest-path computation.
struct ShortestPathTree {
  std::vector<double> distance;  ///< distance[v]; kInfiniteDistance if unreachable.
  std::vector<int> parent;       ///< parent[v] on a shortest path; -1 at roots.
};

/// Unweighted BFS distances (each edge has length 1) from `source`.
ShortestPathTree BfsShortestPaths(const SimpleGraph& graph, int source);

/// All-pairs unweighted distances; entry [u][v] is -1 when
/// unreachable. Quadratic memory — intended for device-sized graphs.
std::vector<std::vector<int>> AllPairsBfsDistances(const SimpleGraph& graph);

}  // namespace qopt
