#include "qubo/qubo_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qopt {

QuboModel::QuboModel(int num_variables) {
  QOPT_CHECK(num_variables >= 0);
  linear_.assign(static_cast<std::size_t>(num_variables), 0.0);
}

void QuboModel::AddLinear(int i, double value) {
  QOPT_CHECK(i >= 0 && i < NumVariables());
  linear_[static_cast<std::size_t>(i)] += value;
}

double QuboModel::Linear(int i) const {
  QOPT_CHECK(i >= 0 && i < NumVariables());
  return linear_[static_cast<std::size_t>(i)];
}

void QuboModel::AddQuadratic(int i, int j, double value) {
  QOPT_CHECK(i >= 0 && i < NumVariables());
  QOPT_CHECK(j >= 0 && j < NumVariables());
  QOPT_CHECK_MSG(i != j, "diagonal terms belong in the linear part");
  if (i > j) std::swap(i, j);
  quadratic_[Key(i, j)] += value;
}

double QuboModel::Quadratic(int i, int j) const {
  QOPT_CHECK(i >= 0 && i < NumVariables());
  QOPT_CHECK(j >= 0 && j < NumVariables());
  QOPT_CHECK(i != j);
  if (i > j) std::swap(i, j);
  auto it = quadratic_.find(Key(i, j));
  return it == quadratic_.end() ? 0.0 : it->second;
}

void QuboModel::Compress(double epsilon) {
  for (auto it = quadratic_.begin(); it != quadratic_.end();) {
    if (std::abs(it->second) <= epsilon) {
      it = quadratic_.erase(it);
    } else {
      ++it;
    }
  }
}

double QuboModel::Energy(const std::vector<std::uint8_t>& bits) const {
  QOPT_CHECK(static_cast<int>(bits.size()) == NumVariables());
  double energy = offset_;
  for (int i = 0; i < NumVariables(); ++i) {
    if (bits[static_cast<std::size_t>(i)]) {
      energy += linear_[static_cast<std::size_t>(i)];
    }
  }
  for (const auto& [key, coeff] : quadratic_) {
    const int i = static_cast<int>(key >> 32);
    const int j = static_cast<int>(key & 0xFFFFFFFFu);
    if (bits[static_cast<std::size_t>(i)] && bits[static_cast<std::size_t>(j)]) {
      energy += coeff;
    }
  }
  return energy;
}

std::vector<std::pair<std::pair<int, int>, double>> QuboModel::QuadraticTerms()
    const {
  std::vector<std::pair<std::pair<int, int>, double>> terms;
  terms.reserve(quadratic_.size());
  for (const auto& [key, coeff] : quadratic_) {
    terms.push_back({{static_cast<int>(key >> 32),
                      static_cast<int>(key & 0xFFFFFFFFu)},
                     coeff});
  }
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return terms;
}

SimpleGraph QuboModel::InteractionGraph() const {
  SimpleGraph graph(NumVariables());
  for (const auto& [key, coeff] : quadratic_) {
    if (coeff == 0.0) continue;
    graph.AddEdge(static_cast<int>(key >> 32),
                  static_cast<int>(key & 0xFFFFFFFFu));
  }
  return graph;
}

CsrAdjacency QuboModel::BuildCsrAdjacency() const {
  const std::size_t n = static_cast<std::size_t>(NumVariables());
  CsrAdjacency csr;
  csr.offsets.assign(n + 1, 0);
  // QuadraticTerms() is sorted by (i, j) with i < j, so appending both
  // directions in term order leaves every row sorted by neighbor index:
  // row i first receives its j < i partners (from terms (j, i), iterated
  // in ascending j), then its j > i partners in ascending j.
  const auto terms = QuadraticTerms();
  for (const auto& [edge, coeff] : terms) {
    (void)coeff;
    ++csr.offsets[static_cast<std::size_t>(edge.first) + 1];
    ++csr.offsets[static_cast<std::size_t>(edge.second) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) csr.offsets[i + 1] += csr.offsets[i];
  csr.neighbors.resize(2 * terms.size());
  csr.coeffs.resize(2 * terms.size());
  std::vector<std::size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const auto& [edge, coeff] : terms) {
    const std::size_t i = static_cast<std::size_t>(edge.first);
    const std::size_t j = static_cast<std::size_t>(edge.second);
    csr.neighbors[cursor[i]] = edge.second;
    csr.coeffs[cursor[i]++] = coeff;
    csr.neighbors[cursor[j]] = edge.first;
    csr.coeffs[cursor[j]++] = coeff;
  }
  return csr;
}

double QuboModel::Density() const {
  const double n = static_cast<double>(NumVariables());
  if (n < 2.0) return 0.0;
  return static_cast<double>(NumQuadraticTerms()) / (n * (n - 1.0) / 2.0);
}

double QuboModel::FlipDelta(const std::vector<std::uint8_t>& bits, int i,
                            const CsrAdjacency& adjacency) const {
  QOPT_CHECK(i >= 0 && i < NumVariables());
  const std::size_t u = static_cast<std::size_t>(i);
  double delta = linear_[u];
  for (std::size_t k = adjacency.offsets[u]; k < adjacency.offsets[u + 1];
       ++k) {
    if (bits[static_cast<std::size_t>(adjacency.neighbors[k])]) {
      delta += adjacency.coeffs[k];
    }
  }
  // Flipping 1 -> 0 removes those contributions instead of adding them.
  return bits[u] ? -delta : delta;
}

std::vector<std::uint8_t> PinnedQubo::Expand(
    const std::vector<std::uint8_t>& core_bits) const {
  QOPT_CHECK(core_bits.size() == free.size());
  std::vector<std::uint8_t> expanded = bits;
  for (std::size_t k = 0; k < free.size(); ++k) {
    expanded[static_cast<std::size_t>(free[k])] = core_bits[k];
  }
  return expanded;
}

PinnedQubo PinSignDefiniteBits(const QuboModel& qubo) {
  enum : std::uint8_t { kFree, kOff, kOn };
  const std::size_t n = static_cast<std::size_t>(qubo.NumVariables());
  const CsrAdjacency adj = qubo.BuildCsrAdjacency();
  // The margin comes from the input row, so folding cannot shrink it.
  std::vector<double> margin(n);
  for (std::size_t i = 0; i < n; ++i) {
    double magnitude = std::abs(qubo.Linear(static_cast<int>(i)));
    for (std::size_t k = adj.offsets[i]; k < adj.offsets[i + 1]; ++k) {
      magnitude += std::abs(adj.coeffs[k]);
    }
    // A NaN anywhere in the row makes the margin NaN, failing both tests.
    margin[i] = 1e-12 + 1e-9 * magnitude;
  }
  std::vector<std::uint8_t> state(n, kFree);
  // x_i's linear term with the pinned-on neighbours folded in, summed in
  // row (index) order; `lo` and `hi` add the free couplings' signed parts.
  const auto fold = [&](std::size_t i, double* lo, double* hi) {
    double linear = qubo.Linear(static_cast<int>(i));
    for (std::size_t k = adj.offsets[i]; k < adj.offsets[i + 1]; ++k) {
      const std::uint8_t neighbor =
          state[static_cast<std::size_t>(adj.neighbors[k])];
      if (neighbor == kOn) {
        linear += adj.coeffs[k];
      } else if (neighbor == kFree) {
        (adj.coeffs[k] < 0.0 ? *lo : *hi) += adj.coeffs[k];
      }
    }
    return linear;
  };
  // A pin only narrows its neighbours' [lo, hi], so once a bit pins it
  // stays pinned; repeat until a pass pins nothing.
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (state[i] != kFree) continue;
      double lo = 0.0;
      double hi = 0.0;
      const double linear = fold(i, &lo, &hi);
      if (linear + lo > margin[i]) {
        state[i] = kOff;
      } else if (linear + hi < -margin[i]) {
        state[i] = kOn;
      } else {
        continue;
      }
      changed = true;
    }
  }

  PinnedQubo pinned;
  pinned.bits.assign(n, 0);
  std::vector<int> local(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == kFree) {
      local[i] = static_cast<int>(pinned.free.size());
      pinned.free.push_back(static_cast<int>(i));
    }
    pinned.bits[i] = state[i] == kOn ? 1 : 0;
  }
  pinned.core = QuboModel(static_cast<int>(pinned.free.size()));
  pinned.core.AddOffset(qubo.Offset());
  for (const int i : pinned.free) {
    const std::size_t u = static_cast<std::size_t>(i);
    double unused = 0.0;
    pinned.core.AddLinear(local[u], fold(u, &unused, &unused));
    for (std::size_t k = adj.offsets[u]; k < adj.offsets[u + 1]; ++k) {
      const int j = adj.neighbors[k];
      if (j > i && state[static_cast<std::size_t>(j)] == kFree) {
        pinned.core.AddQuadratic(local[u], local[static_cast<std::size_t>(j)],
                                 adj.coeffs[k]);
      }
    }
  }
  return pinned;
}

}  // namespace qopt
