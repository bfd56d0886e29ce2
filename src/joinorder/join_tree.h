#pragma once

#include <memory>
#include <string>
#include <vector>

#include "joinorder/query_graph.h"

namespace qopt {

/// A (possibly bushy) join tree: leaves are base relations, inner nodes
/// are joins. Left-deep trees — the paper's setting — are the special
/// case where every right child is a leaf; this general form supports the
/// bushy extension of [16] that the paper lists as future work.
class JoinTree {
 public:
  /// Creates a leaf for `relation`.
  static JoinTree Leaf(int relation);

  /// Creates an inner node joining two subtrees.
  static JoinTree Join(JoinTree left, JoinTree right);

  bool IsLeaf() const { return relation_ >= 0; }

  /// Relations of the subtree, in leaf order (left to right).
  std::vector<int> Relations() const;

  /// True iff every right child is a leaf.
  bool IsLeftDeep() const;

  /// C_out cost: the sum of the cardinalities of every intermediate join
  /// result (including the root when `include_final_join`).
  double Cost(const QueryGraph& graph, bool include_final_join = true) const;

  /// Cardinality of the subtree's result under `graph`.
  double ResultCardinality(const QueryGraph& graph) const;

  /// Textual rendering, e.g. "((R0 |><| R1) |><| (R2 |><| R3))".
  std::string ToString() const;

  /// Builds the left-deep tree of a permutation (the paper's solution
  /// representation).
  static JoinTree FromLeftDeepOrder(const std::vector<int>& order);

  /// Default-constructed trees are empty placeholders; use Leaf()/Join().
  JoinTree() = default;
  bool IsEmpty() const { return relation_ < 0 && left_ == nullptr; }

 private:
  int relation_ = -1;  ///< >= 0 for leaves.
  std::shared_ptr<const JoinTree> left_;
  std::shared_ptr<const JoinTree> right_;
};

/// Optimal bushy join tree by dynamic programming over relation subsets
/// (all 2^n - 2 proper splits per subset; O(3^n) time, n <= ~16).
struct BushyDpResult {
  JoinTree tree;
  double cost = 0.0;
};

BushyDpResult SolveJoinOrderBushyDp(const QueryGraph& graph,
                                    bool include_final_join = true,
                                    int max_relations = 16);

}  // namespace qopt
