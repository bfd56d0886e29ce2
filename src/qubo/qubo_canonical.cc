#include "qubo/qubo_canonical.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "common/random.h"

namespace qopt {
namespace {

/// One splitmix64 step from state `x`. Every hash in this file funnels
/// through it so that structurally different inputs land far apart even
/// when their raw encodings are close.
std::uint64_t Mix(std::uint64_t x) { return Mix64(x + kSplitMixGamma); }

std::uint64_t Mix2(std::uint64_t a, std::uint64_t b) {
  return Mix(a ^ Mix(b));
}

/// Exact bit-pattern hash of a coefficient; -0.0 is normalized so the two
/// IEEE zeros cannot split otherwise identical problems.
std::uint64_t HashDouble(double value) {
  const double normalized = value == 0.0 ? 0.0 : value;
  std::uint64_t pattern = 0;
  static_assert(sizeof(pattern) == sizeof(normalized));
  std::memcpy(&pattern, &normalized, sizeof(pattern));
  return Mix(pattern);
}

// Domain-separation tags so a linear coefficient can never collide with a
// quadratic one that happens to share a bit pattern.
constexpr std::uint64_t kLinearTag = 0x51B0'AC5E'11EA'0001ULL;
constexpr std::uint64_t kEdgeTag = 0x51B0'AC5E'11EA'0002ULL;
constexpr std::uint64_t kOffsetTag = 0x51B0'AC5E'11EA'0003ULL;

// Domain-separation tag for the per-component invariants mixed into the
// initial colors (see ComponentInvariants).
constexpr std::uint64_t kComponentTag = 0x51B0'AC5E'11EA'0004ULL;

/// Number of distinct values in `colors` (the refinement progress meter).
std::size_t CountDistinct(std::vector<std::uint64_t> colors) {
  std::sort(colors.begin(), colors.end());
  return static_cast<std::size_t>(
      std::unique(colors.begin(), colors.end()) - colors.begin());
}

/// Per-vertex hash of the (vertex count, edge count) of the connected
/// component the vertex lies in. Color refinement alone cannot tell some
/// disconnected graphs apart — every vertex of a 6-cycle and of two
/// disjoint triangles sees the same degree-2 neighborhood at every
/// refinement depth, so uniform-coefficient C6 and 2xC3 QUBOs would
/// collide. Component size/edge-count are permutation-invariant and split
/// exactly that family, and decomposition workloads (clamped blocks,
/// disconnected remainders) hit it in practice.
std::vector<std::uint64_t> ComponentInvariants(const CsrAdjacency& adj,
                                               std::size_t n) {
  std::vector<int> component(n, -1);
  std::vector<std::size_t> stack;
  std::vector<std::size_t> members;
  std::vector<std::uint64_t> invariant(n, 0);
  for (std::size_t root = 0; root < n; ++root) {
    if (component[root] >= 0) continue;
    const int id = static_cast<int>(root);
    stack.assign(1, root);
    members.assign(1, root);
    component[root] = id;
    std::uint64_t degree_sum = 0;  // 2 * edge count once the walk is done
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      degree_sum += adj.offsets[v + 1] - adj.offsets[v];
      for (std::size_t k = adj.offsets[v]; k < adj.offsets[v + 1]; ++k) {
        const std::size_t w = static_cast<std::size_t>(adj.neighbors[k]);
        if (component[w] >= 0) continue;
        component[w] = id;
        stack.push_back(w);
        members.push_back(w);
      }
    }
    const std::uint64_t mark =
        Mix2(kComponentTag, Mix2(members.size(), degree_sum / 2));
    for (const std::size_t v : members) invariant[v] = mark;
  }
  return invariant;
}

}  // namespace

std::uint64_t HashCombine(std::uint64_t a, std::uint64_t b) {
  return Mix2(a, b);
}

QuboSignature ComputeQuboSignature(const QuboModel& qubo) {
  const std::size_t n = static_cast<std::size_t>(qubo.NumVariables());
  QuboSignature signature;
  signature.canonical_rank.resize(n, 0);

  const CsrAdjacency& adj = qubo.Rows();

  // Initial colors: linear coefficient plus the connected-component
  // invariant (WL refinement alone cannot separate some disconnected
  // regular graphs; see ComponentInvariants).
  const std::vector<std::uint64_t> component_marks = ComponentInvariants(adj, n);
  std::vector<std::uint64_t> colors(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    colors[i] =
        Mix2(Mix2(kLinearTag, HashDouble(qubo.Linear(static_cast<int>(i)))),
             component_marks[i]);
  }

  // Color refinement. Each round folds an order-independent digest of the
  // (neighbor color, edge coefficient) multiset into every variable's
  // color; the partition can only get finer, so once the number of
  // distinct colors stops growing it is stable and further rounds are
  // no-ops modulo mixing.
  std::vector<std::uint64_t> next(n, 0);
  std::size_t distinct = CountDistinct(colors);
  const std::size_t max_rounds = std::min<std::size_t>(n, 64);
  for (std::size_t round = 0; round < max_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t sum = 0;
      std::uint64_t xored = 0;
      const std::size_t begin = adj.offsets[i];
      const std::size_t end = adj.offsets[i + 1];
      for (std::size_t k = begin; k < end; ++k) {
        const std::uint64_t m =
            Mix2(colors[static_cast<std::size_t>(adj.neighbors[k])],
                 HashDouble(adj.coeffs[k]));
        sum += m;
        xored ^= m;
      }
      next[i] = Mix(colors[i] ^ Mix(sum) ^ Mix2(xored, end - begin));
    }
    colors.swap(next);
    const std::size_t now_distinct = CountDistinct(colors);
    if (now_distinct == distinct) break;  // partition stable
    distinct = now_distinct;
  }

  // Canonical hash: offset, variable count, and order-independent
  // aggregates of the final colors and of the edge signatures (the edges
  // re-enter here so that even one refinement round cannot lose them).
  std::uint64_t color_sum = 0;
  std::uint64_t color_xor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t m = Mix(colors[i]);
    color_sum += m;
    color_xor ^= m;
  }
  std::uint64_t edge_sum = 0;
  std::uint64_t edge_xor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = adj.offsets[i]; k < adj.offsets[i + 1]; ++k) {
      const std::size_t j = static_cast<std::size_t>(adj.neighbors[k]);
      if (j < i) continue;  // count each undirected edge once
      // Symmetric combination of the two endpoint colors: sum and product
      // are both permutation-invariant in (i, j).
      const std::uint64_t endpoint =
          Mix((colors[i] + colors[j]) ^ Mix(colors[i] * colors[j]));
      const std::uint64_t m =
          Mix2(kEdgeTag, endpoint ^ HashDouble(adj.coeffs[k]));
      edge_sum += m;
      edge_xor ^= m;
    }
  }
  signature.canonical_hash =
      Mix(Mix2(kOffsetTag, HashDouble(qubo.Offset())) ^ Mix(n) ^
          Mix(color_sum) ^ Mix2(color_xor, edge_sum) ^ Mix(edge_xor));

  // Canonical order: stable sort by final color, ties by original index.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::uint64_t ca = colors[static_cast<std::size_t>(a)];
    const std::uint64_t cb = colors[static_cast<std::size_t>(b)];
    if (ca != cb) return ca < cb;
    return a < b;
  });
  for (std::size_t rank = 0; rank < n; ++rank) {
    signature.canonical_rank[static_cast<std::size_t>(order[rank])] =
        static_cast<int>(rank);
  }

  // Exact (labeled) hash: a sequential digest over the rows, in (i, j)
  // order.
  std::uint64_t exact = Mix2(kOffsetTag, HashDouble(qubo.Offset())) ^ Mix(n);
  for (std::size_t i = 0; i < n; ++i) {
    exact = Mix(exact ^
                Mix2(kLinearTag, HashDouble(qubo.Linear(static_cast<int>(i)))));
    for (std::size_t k = adj.offsets[i]; k < adj.offsets[i + 1]; ++k) {
      const std::size_t j = static_cast<std::size_t>(adj.neighbors[k]);
      if (j < i) continue;
      exact = Mix(exact ^ Mix2(Mix(j), HashDouble(adj.coeffs[k])));
    }
  }
  signature.exact_hash = exact;
  return signature;
}

std::vector<std::uint8_t> MapBitsToCanonical(
    const QuboSignature& signature, const std::vector<std::uint8_t>& bits) {
  QOPT_CHECK(bits.size() == signature.canonical_rank.size());
  std::vector<std::uint8_t> canonical(bits.size(), 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    canonical[static_cast<std::size_t>(signature.canonical_rank[i])] = bits[i];
  }
  return canonical;
}

std::vector<std::uint8_t> MapBitsFromCanonical(
    const QuboSignature& signature,
    const std::vector<std::uint8_t>& canonical_bits) {
  QOPT_CHECK(canonical_bits.size() == signature.canonical_rank.size());
  std::vector<std::uint8_t> bits(canonical_bits.size(), 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] =
        canonical_bits[static_cast<std::size_t>(signature.canonical_rank[i])];
  }
  return bits;
}

}  // namespace qopt
