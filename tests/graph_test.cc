#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/shortest_paths.h"
#include "graph/simple_graph.h"

namespace qopt {
namespace {

SimpleGraph MakePath(int n) {
  SimpleGraph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

SimpleGraph MakeRandomGraph(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  SimpleGraph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(density)) g.AddEdge(i, j);
    }
  }
  return g;
}

TEST(SimpleGraphTest, EmptyGraph) {
  SimpleGraph g(0);
  EXPECT_EQ(g.NumVertices(), 0);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_TRUE(g.IsConnected());
}

TEST(SimpleGraphTest, AddEdgeAndQuery) {
  SimpleGraph g(3);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.NumEdges(), 1);
}

TEST(SimpleGraphTest, DuplicateEdgeIgnored) {
  SimpleGraph g(2);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(1, 0));
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.Degree(0), 1);
}

TEST(SimpleGraphTest, DegreesAndMaxDegree) {
  SimpleGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(g.Degree(0), 3);
  EXPECT_EQ(g.Degree(3), 1);
  EXPECT_EQ(g.MaxDegree(), 3);
}

TEST(SimpleGraphTest, EdgesAreNormalized) {
  SimpleGraph g(3);
  g.AddEdge(2, 0);
  const auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], std::make_pair(0, 2));
}

TEST(SimpleGraphTest, Connectivity) {
  SimpleGraph g = MakePath(4);
  EXPECT_TRUE(g.IsConnected());
  SimpleGraph h(4);
  h.AddEdge(0, 1);
  h.AddEdge(2, 3);
  EXPECT_FALSE(h.IsConnected());
}

TEST(SimpleGraphTest, ConnectedSubset) {
  SimpleGraph g = MakePath(5);
  EXPECT_TRUE(g.IsConnectedSubset({1, 2, 3}));
  EXPECT_FALSE(g.IsConnectedSubset({0, 2}));
  EXPECT_TRUE(g.IsConnectedSubset({}));
  EXPECT_TRUE(g.IsConnectedSubset({4}));
}

TEST(SimpleGraphTest, InducedSubgraphRelabels) {
  SimpleGraph g = MakePath(5);
  std::vector<bool> removed = {false, true, false, false, false};
  std::vector<int> relabel;
  SimpleGraph sub = g.InducedSubgraph(removed, &relabel);
  EXPECT_EQ(sub.NumVertices(), 4);
  EXPECT_EQ(relabel[0], 0);
  EXPECT_EQ(relabel[1], -1);
  EXPECT_EQ(relabel[2], 1);
  // Path 0-1-2-3-4 minus vertex 1 leaves edges (2,3),(3,4) -> (1,2),(2,3).
  EXPECT_EQ(sub.NumEdges(), 2);
  EXPECT_TRUE(sub.HasEdge(1, 2));
  EXPECT_TRUE(sub.HasEdge(2, 3));
  EXPECT_FALSE(sub.IsConnected());
}

TEST(ShortestPathsTest, BfsDistancesOnPath) {
  SimpleGraph g = MakePath(5);
  const ShortestPathTree tree = BfsShortestPaths(g, 0);
  for (int v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(tree.distance[static_cast<std::size_t>(v)], v);
  }
  EXPECT_EQ(tree.parent[4], 3);
  EXPECT_EQ(tree.parent[0], -1);
}

TEST(ShortestPathsTest, UnreachableIsInfinite) {
  SimpleGraph g(3);
  g.AddEdge(0, 1);
  const ShortestPathTree tree = BfsShortestPaths(g, 0);
  EXPECT_EQ(tree.distance[2], kInfiniteDistance);
}

TEST(ShortestPathsTest, AllPairsMatchesSingleSource) {
  SimpleGraph g = MakeRandomGraph(12, 0.3, 5);
  const auto all = AllPairsBfsDistances(g);
  for (int s = 0; s < 12; ++s) {
    const ShortestPathTree tree = BfsShortestPaths(g, s);
    for (int v = 0; v < 12; ++v) {
      const double d = tree.distance[static_cast<std::size_t>(v)];
      if (d == kInfiniteDistance) {
        EXPECT_EQ(all[s][v], -1);
      } else {
        EXPECT_EQ(all[s][v], static_cast<int>(d));
      }
    }
  }
}

}  // namespace
}  // namespace qopt
