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

std::optional<std::vector<std::uint8_t>> ForcedMinimizer(
    const QuboModel& qubo) {
  // lo, hi and |h| + sum |c| per variable, in one pass over the stored
  // terms. Skipping the sorted CSR build leaves the summation order to the
  // hash map, which moves the sums by rounding only: far inside the
  // margin below, so either order yields the bits every solver returns.
  struct Row {
    double lo, hi, magnitude;
  };
  const std::size_t n = static_cast<std::size_t>(qubo.NumVariables());
  std::vector<Row> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double h = qubo.linear_[i];
    rows[i] = {h, h, std::abs(h)};
  }
  for (const auto& [key, c] : qubo.quadratic_) {
    for (const std::uint64_t v : {key >> 32, key & 0xFFFFFFFFu}) {
      Row& row = rows[static_cast<std::size_t>(v)];
      (c < 0.0 ? row.lo : row.hi) += c;
      row.magnitude += std::abs(c);
    }
  }
  std::vector<std::uint8_t> bits(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // A NaN anywhere in the row makes `margin` NaN, failing both tests.
    const double margin = 1e-12 + 1e-9 * rows[i].magnitude;
    if (rows[i].lo > margin) continue;  // forced off
    if (!(rows[i].hi < -margin)) return std::nullopt;
    bits[i] = 1;  // forced on
  }
  return bits;
}

}  // namespace qopt
