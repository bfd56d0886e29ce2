#include "joinorder/join_tree.h"

#include <functional>
#include <limits>

#include "common/check.h"
#include "common/table_printer.h"
#include "joinorder/join_order.h"

namespace qopt {

JoinTree JoinTree::Leaf(int relation) {
  QOPT_CHECK(relation >= 0);
  JoinTree tree;
  tree.relation_ = relation;
  return tree;
}

JoinTree JoinTree::Join(JoinTree left, JoinTree right) {
  JoinTree tree;
  tree.left_ = std::make_shared<const JoinTree>(std::move(left));
  tree.right_ = std::make_shared<const JoinTree>(std::move(right));
  return tree;
}

std::vector<int> JoinTree::Relations() const {
  std::vector<int> relations;
  if (IsLeaf()) {
    relations.push_back(relation_);
    return relations;
  }
  for (int r : left_->Relations()) relations.push_back(r);
  for (int r : right_->Relations()) relations.push_back(r);
  return relations;
}

bool JoinTree::IsLeftDeep() const {
  if (IsLeaf()) return true;
  return right_->IsLeaf() && left_->IsLeftDeep();
}

double JoinTree::ResultCardinality(const QueryGraph& graph) const {
  return IntermediateCardinality(graph, Relations());
}

double JoinTree::Cost(const QueryGraph& graph,
                      bool include_final_join) const {
  if (IsLeaf()) return 0.0;
  double cost = left_->Cost(graph, /*include_final_join=*/true) +
                right_->Cost(graph, /*include_final_join=*/true);
  if (include_final_join) cost += ResultCardinality(graph);
  return cost;
}

std::string JoinTree::ToString() const {
  if (IsLeaf()) return StrFormat("R%d", relation_);
  // Appending instead of an operator+ chain sidesteps a GCC 12 -Wrestrict
  // false positive on the temporary string concatenation.
  std::string out = "(";
  out += left_->ToString();
  out += " |><| ";
  out += right_->ToString();
  out += ")";
  return out;
}

JoinTree JoinTree::FromLeftDeepOrder(const std::vector<int>& order) {
  QOPT_CHECK(!order.empty());
  JoinTree tree = Leaf(order.front());
  for (std::size_t i = 1; i < order.size(); ++i) {
    tree = Join(std::move(tree), Leaf(order[i]));
  }
  return tree;
}

BushyDpResult SolveJoinOrderBushyDp(const QueryGraph& graph,
                                    bool include_final_join,
                                    int max_relations) {
  const int n = graph.NumRelations();
  QOPT_CHECK_MSG(n <= max_relations, "too many relations for bushy DP");
  QOPT_CHECK(n >= 1);
  const std::size_t num_subsets = std::size_t{1} << n;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // card[S]: result cardinality of subset S; cost[S]: best total cost of
  // producing S including S's own join; split[S]: best left subset.
  std::vector<double> card(num_subsets, 0.0);
  std::vector<double> cost(num_subsets, kInf);
  std::vector<std::size_t> split(num_subsets, 0);
  for (int r = 0; r < n; ++r) {
    const std::size_t s = std::size_t{1} << r;
    card[s] = graph.Cardinality(r);
    cost[s] = 0.0;
  }
  for (std::size_t s = 1; s < num_subsets; ++s) {
    if ((s & (s - 1)) == 0) continue;  // singleton
    // Result cardinality of S (independent of the split).
    std::vector<int> members;
    for (int r = 0; r < n; ++r) {
      if (s & (std::size_t{1} << r)) members.push_back(r);
    }
    card[s] = IntermediateCardinality(graph, members);
    // Enumerate proper subsets as left operands (each split seen twice,
    // harmless).
    for (std::size_t left = (s - 1) & s; left != 0;
         left = (left - 1) & s) {
      const std::size_t right = s ^ left;
      if (right == 0) continue;
      if (cost[left] == kInf || cost[right] == kInf) continue;
      const double total = cost[left] + cost[right] + card[s];
      if (total < cost[s]) {
        cost[s] = total;
        split[s] = left;
      }
    }
  }

  // Reconstruct the tree.
  std::function<JoinTree(std::size_t)> build = [&](std::size_t s) {
    if ((s & (s - 1)) == 0) {
      int r = 0;
      while (!(s & (std::size_t{1} << r))) ++r;
      return JoinTree::Leaf(r);
    }
    return JoinTree::Join(build(split[s]), build(s ^ split[s]));
  };
  const std::size_t full = num_subsets - 1;
  BushyDpResult result;
  result.tree = build(full);
  result.cost = n == 1 ? 0.0
                       : (include_final_join ? cost[full]
                                             : cost[full] - card[full]);
  return result;
}

}  // namespace qopt
