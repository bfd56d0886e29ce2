#include "qubo/ising_model.h"

#include "common/check.h"

namespace qopt {

IsingModel::IsingModel(int num_spins) {
  QOPT_CHECK(num_spins >= 0);
  h_.assign(static_cast<std::size_t>(num_spins), 0.0);
}

void IsingModel::AddField(int i, double value) {
  QOPT_CHECK(i >= 0 && i < NumSpins());
  h_[static_cast<std::size_t>(i)] += value;
}

double IsingModel::Field(int i) const {
  QOPT_CHECK(i >= 0 && i < NumSpins());
  return h_[static_cast<std::size_t>(i)];
}

void IsingModel::AddCoupling(int i, int j, double value) {
  QOPT_CHECK(i < NumSpins() && j < NumSpins());
  j_.Add(i, j, value);
}

double IsingModel::Energy(const std::vector<int>& spins) const {
  QOPT_CHECK(static_cast<int>(spins.size()) == NumSpins());
  double energy = offset_;
  for (int i = 0; i < NumSpins(); ++i) {
    const int s = spins[static_cast<std::size_t>(i)];
    QOPT_CHECK_MSG(s == -1 || s == 1, "spins must be -1 or +1");
    energy += h_[static_cast<std::size_t>(i)] * s;
  }
  for (const auto& [edge, coeff] : Couplings()) {
    energy += coeff * spins[static_cast<std::size_t>(edge.first)] *
              spins[static_cast<std::size_t>(edge.second)];
  }
  return energy;
}

}  // namespace qopt
