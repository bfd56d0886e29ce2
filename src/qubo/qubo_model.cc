#include "qubo/qubo_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qopt {

std::uint64_t PairSums::Key(int i, int j) {
  QOPT_CHECK(i >= 0 && j >= 0);
  QOPT_CHECK_MSG(i != j, "diagonal terms belong in the linear part");
  if (i > j) std::swap(i, j);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
         static_cast<std::uint32_t>(j);
}

void PairSums::Add(int i, int j, double value) {
  adds_.emplace_back(Key(i, j), value);
}

PairTerms PairSums::Sorted() && {
  // The stable sort keeps each pair's additions in call order.
  std::vector<std::pair<std::uint64_t, double>> adds = std::move(adds_);
  std::stable_sort(adds.begin(), adds.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  PairTerms terms;
  terms.reserve(adds.size());
  for (std::size_t run = 0; run < adds.size();) {
    const std::uint64_t key = adds[run].first;
    double sum = 0.0;
    for (; run < adds.size() && adds[run].first == key; ++run) {
      sum += adds[run].second;
    }
    terms.push_back({{static_cast<int>(key >> 32),
                      static_cast<int>(key & 0xFFFFFFFFu)},
                     sum});
  }
  return terms;
}

QuboModel::QuboModel(double offset, std::vector<double> linear,
                     const PairTerms& terms)
    : offset_(offset), linear_(std::move(linear)) {
  const std::size_t n = linear_.size();
  rows_.offsets.assign(n + 1, 0);
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const auto& [edge, coeff] = terms[t];
    QOPT_CHECK(edge.first >= 0 && edge.first < edge.second &&
               static_cast<std::size_t>(edge.second) < n);
    QOPT_CHECK_MSG(t == 0 || terms[t - 1].first < edge,
                   "quadratic terms must be strictly ascending in (i, j)");
    QOPT_CHECK_MSG(coeff != 0.0, "zero quadratic terms are not stored");
    ++rows_.offsets[static_cast<std::size_t>(edge.first) + 1];
    ++rows_.offsets[static_cast<std::size_t>(edge.second) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) rows_.offsets[i + 1] += rows_.offsets[i];
  rows_.neighbors.resize(2 * terms.size());
  rows_.coeffs.resize(2 * terms.size());
  // Appending both directions in (i, j) order leaves every row sorted:
  // row i receives its j < i partners in ascending j, then its j > i ones.
  std::vector<std::size_t> cursor(rows_.offsets.begin(),
                                  rows_.offsets.end() - 1);
  for (const auto& [edge, coeff] : terms) {
    const std::size_t i = static_cast<std::size_t>(edge.first);
    const std::size_t j = static_cast<std::size_t>(edge.second);
    rows_.neighbors[cursor[i]] = edge.second;
    rows_.coeffs[cursor[i]++] = coeff;
    rows_.neighbors[cursor[j]] = edge.first;
    rows_.coeffs[cursor[j]++] = coeff;
  }
}

double QuboModel::Linear(int i) const {
  QOPT_CHECK(i >= 0 && i < NumVariables());
  return linear_[static_cast<std::size_t>(i)];
}

double QuboModel::Quadratic(int i, int j) const {
  QOPT_CHECK(i >= 0 && i < NumVariables() && j >= 0 && j < NumVariables());
  QOPT_CHECK(i != j);
  const int* row = rows_.neighbors.data();
  const int* end = row + rows_.offsets[i + 1];
  const int* it = std::lower_bound(row + rows_.offsets[i], end, j);
  return it != end && *it == j ? rows_.coeffs[it - row] : 0.0;
}

double QuboModel::Energy(const std::vector<std::uint8_t>& bits) const {
  QOPT_CHECK(bits.size() == linear_.size());
  const std::size_t n = linear_.size();
  double energy = offset_;
  for (std::size_t i = 0; i < n; ++i) {
    if (bits[i]) energy += linear_[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!bits[i]) continue;
    for (std::size_t k = rows_.offsets[i]; k < rows_.offsets[i + 1]; ++k) {
      const std::size_t j = static_cast<std::size_t>(rows_.neighbors[k]);
      if (j > i && bits[j]) energy += rows_.coeffs[k];
    }
  }
  return energy;
}

PairTerms QuboModel::QuadraticTerms() const {
  PairTerms terms;
  terms.reserve(static_cast<std::size_t>(NumQuadraticTerms()));
  for (int i = 0; i < NumVariables(); ++i) {
    for (std::size_t k = rows_.offsets[i]; k < rows_.offsets[i + 1]; ++k) {
      if (rows_.neighbors[k] > i) {
        terms.push_back({{i, rows_.neighbors[k]}, rows_.coeffs[k]});
      }
    }
  }
  return terms;
}

SimpleGraph QuboModel::InteractionGraph() const {
  SimpleGraph graph(NumVariables());
  for (const auto& [edge, coeff] : QuadraticTerms()) {
    graph.AddEdge(edge.first, edge.second);
  }
  return graph;
}

double QuboModel::Density() const {
  const double n = static_cast<double>(NumVariables());
  if (n < 2.0) return 0.0;
  return static_cast<double>(NumQuadraticTerms()) / (n * (n - 1.0) / 2.0);
}

double QuboModel::FlipDelta(const std::vector<std::uint8_t>& bits,
                            int i) const {
  QOPT_CHECK(i >= 0 && i < NumVariables());
  const std::size_t u = static_cast<std::size_t>(i);
  double delta = linear_[u];
  for (std::size_t k = rows_.offsets[u]; k < rows_.offsets[u + 1]; ++k) {
    if (bits[static_cast<std::size_t>(rows_.neighbors[k])]) {
      delta += rows_.coeffs[k];
    }
  }
  // Flipping 1 -> 0 removes those contributions instead of adding them.
  return bits[u] ? -delta : delta;
}

QuboBuilder::QuboBuilder(int num_variables) {
  QOPT_CHECK(num_variables >= 0);
  linear_.assign(static_cast<std::size_t>(num_variables), 0.0);
}

void QuboBuilder::AddLinear(int i, double value) {
  QOPT_CHECK(i >= 0 && i < NumVariables());
  linear_[static_cast<std::size_t>(i)] += value;
}

void QuboBuilder::AddQuadratic(int i, int j, double value) {
  QOPT_CHECK(i < NumVariables() && j < NumVariables());
  quadratic_.Add(i, j, value);
}

QuboModel QuboBuilder::Build() && {
  PairTerms terms = std::move(quadratic_).Sorted();
  std::erase_if(terms, [](const auto& term) { return term.second == 0.0; });
  return QuboModel(offset_, std::move(linear_), terms);
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
  const CsrAdjacency& adj = qubo.Rows();
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
  // Free rows in ascending order, each filtered to its free partners
  // j > i: the core's terms come out in (i, j) order.
  std::vector<double> linear;
  PairTerms terms;
  for (const int i : pinned.free) {
    const std::size_t u = static_cast<std::size_t>(i);
    double unused = 0.0;
    linear.push_back(fold(u, &unused, &unused));
    for (std::size_t k = adj.offsets[u]; k < adj.offsets[u + 1]; ++k) {
      const int j = adj.neighbors[k];
      if (j > i && state[static_cast<std::size_t>(j)] == kFree) {
        terms.push_back(
            {{local[u], local[static_cast<std::size_t>(j)]}, adj.coeffs[k]});
      }
    }
  }
  pinned.core = QuboModel(qubo.Offset(), std::move(linear), terms);
  return pinned;
}

}  // namespace qopt
