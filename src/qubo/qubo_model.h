#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/simple_graph.h"

namespace qopt {

/// Flattened compressed-sparse-row view of a QUBO's quadratic terms: the
/// neighbors of variable i are neighbors[offsets[i] .. offsets[i+1]), with
/// matching coefficients, sorted by neighbor index. The sort makes the
/// layout (and therefore every FP summation order derived from it)
/// deterministic across platforms and standard libraries, whatever the
/// unordered_map iteration order of the terms. This is the local-search
/// solvers' hot-loop format: one contiguous coefficient stream per row.
struct CsrAdjacency {
  std::vector<std::size_t> offsets;  ///< size NumVariables() + 1
  std::vector<int> neighbors;        ///< size 2 * NumQuadraticTerms()
  std::vector<double> coeffs;        ///< parallel to neighbors

  int Degree(int i) const {
    return static_cast<int>(offsets[static_cast<std::size_t>(i) + 1] -
                            offsets[static_cast<std::size_t>(i)]);
  }
};

/// Quadratic unconstrained binary optimization problem
///
///   E(x) = offset + sum_i linear_i * x_i
///               + sum_{i<j} quadratic_{ij} * x_i * x_j,     x_i in {0, 1}.
///
/// Stored sparsely in upper-triangular form. This is the common currency
/// of the library: the MQO encoder (Ch. 5) and the join-ordering BILP
/// encoder (Ch. 6) both produce a QuboModel, and every solver backend
/// (brute force, simulated annealing, QAOA, VQE, annealer emulation)
/// consumes one.
class QuboModel {
 public:
  QuboModel() = default;

  /// Creates a QUBO over `num_variables` binary variables, all zero terms.
  explicit QuboModel(int num_variables);

  int NumVariables() const { return static_cast<int>(linear_.size()); }

  /// Number of non-zero quadratic terms (the "QUBO matrix density" metric
  /// the paper reports in Table 4).
  int NumQuadraticTerms() const { return static_cast<int>(quadratic_.size()); }

  /// Adds `value` to the constant offset.
  void AddOffset(double value) { offset_ += value; }
  double Offset() const { return offset_; }

  /// Adds `value` to the linear coefficient of x_i.
  void AddLinear(int i, double value);
  double Linear(int i) const;

  /// Adds `value` to the quadratic coefficient of x_i * x_j (i != j; the
  /// pair is normalized to i < j). A coefficient that becomes exactly zero
  /// still counts as a stored term until Compress() is called.
  void AddQuadratic(int i, int j, double value);
  double Quadratic(int i, int j) const;

  /// Removes stored quadratic terms whose magnitude is <= `epsilon`.
  void Compress(double epsilon = 0.0);

  /// Energy of an assignment (bits.size() == NumVariables()).
  double Energy(const std::vector<std::uint8_t>& bits) const;

  /// All quadratic entries as ((i, j), coefficient) with i < j.
  std::vector<std::pair<std::pair<int, int>, double>> QuadraticTerms() const;

  /// Graph with one vertex per variable and one edge per non-zero
  /// quadratic term. This is the graph that must be minor-embedded into an
  /// annealer topology and that determines QAOA interaction layers.
  SimpleGraph InteractionGraph() const;

  /// Index-sorted flattened adjacency (see CsrAdjacency). Rebuilt on each
  /// call; O(terms log terms).
  CsrAdjacency BuildCsrAdjacency() const;

  /// Fraction of the n*(n-1)/2 possible variable pairs that carry a stored
  /// quadratic term (0.0 for n < 2). The annealer uses this to pick the
  /// dense-row sweep layout for dense problems.
  double Density() const;

  /// Energy delta from flipping bit `i` of `bits`, in O(degree(i)) given
  /// this model's BuildCsrAdjacency().
  double FlipDelta(const std::vector<std::uint8_t>& bits, int i,
                   const CsrAdjacency& adjacency) const;

 private:
  static std::uint64_t Key(int i, int j) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
           static_cast<std::uint32_t>(j);
  }

  double offset_ = 0.0;
  std::vector<double> linear_;
  std::unordered_map<std::uint64_t, double> quadratic_;  // key: i < j packed.
};

/// A QUBO with its sign-definite bits pinned (PinSignDefiniteBits): the
/// pinned assignment, the free variables and the *core* QUBO over them.
struct PinnedQubo {
  /// One entry per input variable: the pinned value, or 0 for a free bit.
  std::vector<std::uint8_t> bits;
  /// The free input variables, ascending; core variable k is free[k].
  std::vector<int> free;
  /// The input over the free variables, with each pinned-on bit's
  /// couplings folded into its free neighbours' linear terms. It keeps the
  /// input's offset and drops the pinned bits' own constant share, so
  /// Energy(Expand(b)) - core.Energy(b) is the same for every b.
  QuboModel core;

  /// The input assignment made of `core_bits` on the free variables and
  /// the pins everywhere else.
  std::vector<std::uint8_t> Expand(
      const std::vector<std::uint8_t>& core_bits) const;
};

/// Pins every bit whose best value is the same whatever the other bits
/// hold, and reduces the QUBO to the rest. For a free bit i, lo_i and hi_i
/// are the least and greatest energy change of turning x_i on given the
/// pins so far: h_i plus the couplings to pinned-on bits, plus
/// sum_j min(0, c_ij) (lo) or sum_j max(0, c_ij) (hi) over free
/// neighbours j. lo_i > margin pins x_i off, hi_i < -margin pins it on;
/// passes in index order repeat until no bit pins. The margin is 1e-12
/// (the SA greedy descent's tolerance) plus 1e-9 of the input row's
/// magnitude |h_i| + sum_j |c_ij|, pinned neighbours included, so rounding
/// in the folded sums cannot flip a decision; a zero margin or a NaN in
/// the row never pins.
///
/// Persistency: a pinned bit holds its pinned value in every minimizer,
/// so the core's minimizers, expanded by the pins, are exactly the
/// input's. Sums run over BuildCsrAdjacency() rows, so the core is a pure
/// function of the input's coefficients. With no bit pinned the core has
/// the input's coefficients; with every bit pinned it is empty and `bits`
/// is the unique minimizer.
PinnedQubo PinSignDefiniteBits(const QuboModel& qubo);

}  // namespace qopt
