#pragma once

#include <vector>

#include "qubo/qubo_model.h"

namespace qopt {

/// Ising Hamiltonian over spins s_i in {-1, +1} (Eq. 13 of the paper,
/// written with positive sign convention):
///
///   H(s) = offset + sum_i h_i s_i + sum_{i<j} J_{ij} s_i s_j.
///
/// QAOA and VQE act on this form; `conversions.h` maps it to/from
/// QuboModel, which the paper treats as interchangeable (Sec. 3.3).
class IsingModel {
 public:
  IsingModel() = default;
  explicit IsingModel(int num_spins);

  int NumSpins() const { return static_cast<int>(h_.size()); }

  void AddOffset(double value) { offset_ += value; }
  double Offset() const { return offset_; }

  void AddField(int i, double value);
  double Field(int i) const;

  void AddCoupling(int i, int j, double value);

  /// Energy of spins each -1 or +1: the offset, then the fields in index
  /// order, then the couplings in (i, j) order.
  double Energy(const std::vector<int>& spins) const;

  /// All couplings as ((i, j), J_ij) with i < j, sorted.
  PairTerms Couplings() const { return PairSums(j_).Sorted(); }

 private:
  double offset_ = 0.0;
  std::vector<double> h_;
  PairSums j_;
};

}  // namespace qopt
