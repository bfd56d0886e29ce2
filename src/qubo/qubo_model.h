#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/simple_graph.h"

namespace qopt {

/// Quadratic terms as ((i, j), coefficient) with i < j.
using PairTerms = std::vector<std::pair<std::pair<int, int>, double>>;

/// Per-pair coefficient sums behind QuboBuilder and IsingModel: a log of
/// the additions, keyed by the packed pair. Each pair sums its additions
/// in call order, and the pairs come back in (i, j) order, so neither
/// depends on anything but the values added to each pair.
class PairSums {
 public:
  void Add(int i, int j, double value);  ///< i != j, both >= 0.
  /// Every pair added to, exact zero sums included, in (i, j) order. Sorts
  /// the log in place and releases it.
  PairTerms Sorted() &&;

 private:
  static std::uint64_t Key(int i, int j);

  std::vector<std::pair<std::uint64_t, double>> adds_;
};

/// Compressed-sparse-row form of a QUBO's quadratic terms: the neighbors
/// of variable i are neighbors[offsets[i] .. offsets[i+1]), with matching
/// coefficients, sorted by neighbor index; every pair appears in both of
/// its rows. The local-search solvers' hot-loop format.
struct CsrAdjacency {
  std::vector<std::size_t> offsets = {0};  ///< size NumVariables() + 1
  std::vector<int> neighbors;              ///< size 2 * NumQuadraticTerms()
  std::vector<double> coeffs;              ///< parallel to neighbors
};

/// Quadratic unconstrained binary optimization problem
///
///   E(x) = offset + sum_i linear_i * x_i
///               + sum_{i<j} quadratic_{ij} * x_i * x_j,     x_i in {0, 1}.
///
/// Immutable: built once by QuboBuilder::Build() or the row constructor,
/// and stored as index-sorted CSR rows with no zero term. The MQO encoder
/// (Ch. 5) and the join-ordering BILP encoder (Ch. 6) both produce one,
/// and every solver backend consumes one. Every reader walks the rows in
/// index order, so results depend on the coefficients alone, never on
/// the order they were added in.
class QuboModel {
 public:
  QuboModel() = default;  ///< Zero variables.

  /// The model with this offset, these linear terms (one per variable)
  /// and these quadratic terms. `terms` must be strictly ascending in
  /// (i, j), with 0 <= i < j < linear.size() and no coefficient equal to
  /// 0.0; each is checked. O(variables + terms).
  QuboModel(double offset, std::vector<double> linear, const PairTerms& terms);

  int NumVariables() const { return static_cast<int>(linear_.size()); }

  /// Number of non-zero quadratic terms (the "QUBO matrix density" metric
  /// the paper reports in Table 4).
  int NumQuadraticTerms() const {
    return static_cast<int>(rows_.neighbors.size() / 2);
  }

  double Offset() const { return offset_; }
  double Linear(int i) const;
  /// Coefficient of x_i * x_j (i != j), 0.0 for an absent pair.
  double Quadratic(int i, int j) const;

  /// Energy of an assignment (bits.size() == NumVariables()): the offset,
  /// then the linear terms in index order, then the pairs in (i, j) order.
  double Energy(const std::vector<std::uint8_t>& bits) const;

  /// All quadratic entries as ((i, j), coefficient) with i < j, sorted.
  PairTerms QuadraticTerms() const;

  /// One vertex per variable and one edge per quadratic term, added in
  /// (i, j) order: the graph the annealer's minor embedding maps.
  SimpleGraph InteractionGraph() const;

  /// The index-sorted symmetric rows (see CsrAdjacency).
  const CsrAdjacency& Rows() const { return rows_; }

  /// Fraction of the n*(n-1)/2 variable pairs that carry a quadratic term
  /// (0.0 for n < 2); picks the annealer's dense-row layout.
  double Density() const;

  /// Energy delta from flipping bit `i` of `bits`, in O(degree(i)).
  double FlipDelta(const std::vector<std::uint8_t>& bits, int i) const;

 private:
  double offset_ = 0.0;
  std::vector<double> linear_;
  CsrAdjacency rows_;
};

/// The mutable accumulator the encoders fill term by term; every
/// coefficient sums in call order.
class QuboBuilder {
 public:
  explicit QuboBuilder(int num_variables);  ///< All terms zero.

  int NumVariables() const { return static_cast<int>(linear_.size()); }

  void AddOffset(double value) { offset_ += value; }
  void AddLinear(int i, double value);
  /// Adds to the coefficient of x_i * x_j (i != j, in either order).
  void AddQuadratic(int i, int j, double value);

  /// The model of the terms added so far, without the pairs whose sum is
  /// exactly zero. Consumes the builder: `std::move(builder).Build()`.
  QuboModel Build() &&;

 private:
  double offset_ = 0.0;
  std::vector<double> linear_;
  PairSums quadratic_;
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
/// input's. Sums run over the input's rows in index order, and the core's
/// rows are the input's rows filtered to the free bits. With every bit
/// pinned the core is empty and `bits` is the unique minimizer.
PinnedQubo PinSignDefiniteBits(const QuboModel& qubo);

}  // namespace qopt
