#include "graph/shortest_paths.h"

#include <queue>

#include "common/check.h"

namespace qopt {

ShortestPathTree BfsShortestPaths(const SimpleGraph& graph, int source) {
  QOPT_CHECK(source >= 0 && source < graph.NumVertices());
  ShortestPathTree tree;
  const std::size_t n = static_cast<std::size_t>(graph.NumVertices());
  tree.distance.assign(n, kInfiniteDistance);
  tree.parent.assign(n, -1);
  std::queue<int> queue;
  tree.distance[static_cast<std::size_t>(source)] = 0.0;
  queue.push(source);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    for (int v : graph.Neighbors(u)) {
      if (tree.distance[static_cast<std::size_t>(v)] == kInfiniteDistance) {
        tree.distance[static_cast<std::size_t>(v)] =
            tree.distance[static_cast<std::size_t>(u)] + 1.0;
        tree.parent[static_cast<std::size_t>(v)] = u;
        queue.push(v);
      }
    }
  }
  return tree;
}

std::vector<std::vector<int>> AllPairsBfsDistances(const SimpleGraph& graph) {
  const int n = graph.NumVertices();
  std::vector<std::vector<int>> dist(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int s = 0; s < n; ++s) {
    ShortestPathTree tree = BfsShortestPaths(graph, s);
    for (int v = 0; v < n; ++v) {
      const double d = tree.distance[static_cast<std::size_t>(v)];
      dist[static_cast<std::size_t>(s)][static_cast<std::size_t>(v)] =
          d == kInfiniteDistance ? -1 : static_cast<int>(d);
    }
  }
  return dist;
}

}  // namespace qopt
