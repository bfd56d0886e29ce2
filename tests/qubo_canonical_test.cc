// Canonical-form QUBO signatures (qubo/qubo_canonical.h): relabeling
// invariance of canonical_hash, labeled sensitivity of exact_hash,
// perturbation sensitivity, rank-based solution transport between
// isomorphic labelings, and HashCombine basics. These are the contracts
// the serving layer's solution cache leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "common/random.h"
#include "qubo/qubo_canonical.h"
#include "qubo/qubo_model.h"

namespace qopt {
namespace {

/// A dense-ish asymmetric QUBO: distinct linear terms and a quadratic
/// pattern that separates most variables under refinement.
QuboBuilder SampleQuboTerms(int n) {
  QuboBuilder qubo(n);
  for (int i = 0; i < n; ++i) {
    qubo.AddLinear(i, 1.0 + 0.5 * i);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if ((i + j) % 3 == 0) {
        qubo.AddQuadratic(i, j, -2.0 + 0.25 * i + 0.125 * j);
      }
    }
  }
  return qubo;
}

QuboModel MakeSampleQubo(int n) { return SampleQuboTerms(n).Build(); }

/// Relabels `qubo` through `perm`: variable i of the input becomes
/// variable perm[i] of the output.
QuboModel Relabel(const QuboModel& qubo, const std::vector<int>& perm) {
  QuboBuilder out(qubo.NumVariables());
  out.AddOffset(qubo.Offset());
  for (int i = 0; i < qubo.NumVariables(); ++i) {
    out.AddLinear(perm[i], qubo.Linear(i));
  }
  for (const auto& term : qubo.QuadraticTerms()) {
    out.AddQuadratic(perm[term.first.first], perm[term.first.second],
                     term.second);
  }
  return std::move(out).Build();
}

std::vector<int> RandomPermutation(int n, std::uint64_t seed) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&perm);
  return perm;
}

TEST(QuboCanonicalTest, CanonicalHashInvariantUnderRelabeling) {
  const QuboModel qubo = MakeSampleQubo(12);
  const QuboSignature base = ComputeQuboSignature(qubo);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<int> perm = RandomPermutation(12, seed);
    const QuboModel relabeled = Relabel(qubo, perm);
    const QuboSignature sig = ComputeQuboSignature(relabeled);
    EXPECT_EQ(sig.canonical_hash, base.canonical_hash)
        << "relabeling changed the canonical hash (seed " << seed << ")";
    // The identity permutation is possible but vanishingly unlikely for
    // eight random shuffles of 12 elements; only assert exact_hash
    // differs when the permutation actually moved something.
    bool moved = false;
    for (int i = 0; i < 12; ++i) moved = moved || perm[i] != i;
    if (moved) {
      EXPECT_NE(sig.exact_hash, base.exact_hash)
          << "exact hash must distinguish labelings (seed " << seed << ")";
    }
  }
}

TEST(QuboCanonicalTest, ExactHashEqualForIdenticalQubo) {
  const QuboModel a = MakeSampleQubo(9);
  const QuboModel b = MakeSampleQubo(9);
  const QuboSignature sa = ComputeQuboSignature(a);
  const QuboSignature sb = ComputeQuboSignature(b);
  EXPECT_EQ(sa.exact_hash, sb.exact_hash);
  EXPECT_EQ(sa.canonical_hash, sb.canonical_hash);
}

TEST(QuboCanonicalTest, PerturbationChangesBothHashes) {
  const QuboModel base = MakeSampleQubo(10);
  const QuboSignature sig = ComputeQuboSignature(base);

  QuboBuilder linear_bump = SampleQuboTerms(10);
  linear_bump.AddLinear(3, 1e-9);
  const QuboSignature sl = ComputeQuboSignature(std::move(linear_bump).Build());
  EXPECT_NE(sl.canonical_hash, sig.canonical_hash);
  EXPECT_NE(sl.exact_hash, sig.exact_hash);

  QuboBuilder quad_bump = SampleQuboTerms(10);
  quad_bump.AddQuadratic(0, 5, 0.5);
  const QuboSignature sq = ComputeQuboSignature(std::move(quad_bump).Build());
  EXPECT_NE(sq.canonical_hash, sig.canonical_hash);
  EXPECT_NE(sq.exact_hash, sig.exact_hash);

  QuboBuilder offset_bump = SampleQuboTerms(10);
  offset_bump.AddOffset(2.0);
  const QuboSignature so = ComputeQuboSignature(std::move(offset_bump).Build());
  EXPECT_NE(so.exact_hash, sig.exact_hash)
      << "the offset shifts every energy, so it must enter the hash";
}

TEST(QuboCanonicalTest, NegativeZeroNormalized) {
  // The row constructor stores a -0.0 linear term as given.
  const QuboModel a(0.0, {0.0, 2.0, 0.0}, {{{0, 1}, 1.5}});
  const QuboModel b(0.0, {-0.0, 2.0, 0.0}, {{{0, 1}, 1.5}});
  ASSERT_TRUE(std::signbit(b.Linear(0)));
  EXPECT_EQ(ComputeQuboSignature(a).exact_hash,
            ComputeQuboSignature(b).exact_hash);
  EXPECT_EQ(ComputeQuboSignature(a).canonical_hash,
            ComputeQuboSignature(b).canonical_hash);
}

TEST(QuboCanonicalTest, CollisionSanityOnPerturbedFamily) {
  // 40 structurally close but distinct QUBOs must produce 40 distinct
  // canonical hashes — the cache key would silently merge them otherwise
  // (the isomorphic-verify path would then reject, but every collision
  // costs a wasted energy check).
  std::set<std::uint64_t> hashes;
  for (int k = 0; k < 40; ++k) {
    QuboBuilder qubo = SampleQuboTerms(8);
    qubo.AddQuadratic(1, 2, 0.01 * (k + 1));
    hashes.insert(ComputeQuboSignature(std::move(qubo).Build()).canonical_hash);
  }
  EXPECT_EQ(hashes.size(), 40u);
}

TEST(QuboCanonicalTest, RankMappingRoundTrips) {
  const QuboModel qubo = MakeSampleQubo(11);
  const QuboSignature sig = ComputeQuboSignature(qubo);
  ASSERT_EQ(sig.canonical_rank.size(), 11u);

  // canonical_rank must be a permutation of 0..n-1.
  std::vector<int> sorted = sig.canonical_rank;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 11; ++i) EXPECT_EQ(sorted[i], i);

  std::vector<std::uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0};
  const std::vector<std::uint8_t> canonical = MapBitsToCanonical(sig, bits);
  EXPECT_EQ(MapBitsFromCanonical(sig, canonical), bits);
}

TEST(QuboCanonicalTest, SolutionTransportsAcrossIsomorphicLabelings) {
  // The cache's isomorphic-hit path: bits found for labeling A, stored in
  // canonical coordinates, projected out through labeling B's ranks. The
  // projected assignment must assign the "same" variables (so energies
  // match exactly) whenever refinement separates all variables.
  const QuboModel a = MakeSampleQubo(12);
  const QuboSignature sig_a = ComputeQuboSignature(a);
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    const std::vector<int> perm = RandomPermutation(12, seed);
    const QuboModel b = Relabel(a, perm);
    const QuboSignature sig_b = ComputeQuboSignature(b);
    ASSERT_EQ(sig_a.canonical_hash, sig_b.canonical_hash);

    std::vector<std::uint8_t> bits_a = {0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0};
    const std::vector<std::uint8_t> bits_b =
        MapBitsFromCanonical(sig_b, MapBitsToCanonical(sig_a, bits_a));
    EXPECT_DOUBLE_EQ(b.Energy(bits_b), a.Energy(bits_a))
        << "transported assignment lost energy (seed " << seed << ")";
  }
}

TEST(QuboCanonicalTest, HashCombineOrderAndDistinctness) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_NE(HashCombine(0, 0), 0u);
  EXPECT_EQ(HashCombine(7, 9), HashCombine(7, 9));
}

// ---------------------------------------------------------------------------
// Degenerate-input sweep: empty, single-variable and disconnected QUBOs.
// ---------------------------------------------------------------------------

/// Uniform-weight cycle over the given variables: every vertex has degree
/// 2, identical linear terms and identical couplings — the worst case for
/// pure WL refinement, which sees only degrees and weights.
QuboModel MakeUniformCycles(const std::vector<int>& cycle_lengths) {
  int n = 0;
  for (int len : cycle_lengths) n += len;
  QuboBuilder qubo(n);
  int base = 0;
  for (int len : cycle_lengths) {
    for (int i = 0; i < len; ++i) {
      qubo.AddLinear(base + i, -1.0);
      qubo.AddQuadratic(base + i, base + (i + 1) % len, 2.0);
    }
    base += len;
  }
  return std::move(qubo).Build();
}

TEST(QuboCanonicalTest, EmptyAndSingleVariableQubosHaveStableSignatures) {
  const QuboModel empty;
  const QuboSignature empty_sig = ComputeQuboSignature(empty);
  EXPECT_TRUE(empty_sig.canonical_rank.empty());
  EXPECT_EQ(empty_sig.canonical_hash,
            ComputeQuboSignature(QuboBuilder(0).Build()).canonical_hash);

  QuboBuilder one(1);
  one.AddLinear(0, 2.5);
  const QuboSignature one_sig = ComputeQuboSignature(std::move(one).Build());
  ASSERT_EQ(one_sig.canonical_rank.size(), 1u);
  EXPECT_EQ(one_sig.canonical_rank[0], 0);
  EXPECT_NE(one_sig.canonical_hash, empty_sig.canonical_hash);

  QuboBuilder other(1);
  other.AddLinear(0, -2.5);
  EXPECT_NE(ComputeQuboSignature(std::move(other).Build()).canonical_hash,
            one_sig.canonical_hash);
}

TEST(QuboCanonicalTest, DisconnectedRegularGraphsDoNotCollide) {
  // The known WL soft spot the serve cache tripped over: C6 and C3+C3
  // are both 2-regular with uniform weights, so refinement alone never
  // separates them. The component-invariant seeding must keep their
  // canonical hashes apart (a collision would transport a C6 solution
  // onto a C3+C3 instance).
  const QuboModel c6 = MakeUniformCycles({6});
  const QuboModel c3c3 = MakeUniformCycles({3, 3});
  EXPECT_NE(ComputeQuboSignature(c6).canonical_hash,
            ComputeQuboSignature(c3c3).canonical_hash);

  // Same family, larger split: C12 vs 2xC6 vs 3xC4.
  const std::uint64_t c12 =
      ComputeQuboSignature(MakeUniformCycles({12})).canonical_hash;
  const std::uint64_t c6c6 =
      ComputeQuboSignature(MakeUniformCycles({6, 6})).canonical_hash;
  const std::uint64_t c4x3 =
      ComputeQuboSignature(MakeUniformCycles({4, 4, 4})).canonical_hash;
  EXPECT_NE(c12, c6c6);
  EXPECT_NE(c12, c4x3);
  EXPECT_NE(c6c6, c4x3);
}

TEST(QuboCanonicalTest, DisconnectedGraphsStayRelabelingInvariant) {
  // The component fix must not break the core invariance: shuffling a
  // disconnected QUBO's labels (mixing the components) keeps the hash.
  const QuboModel a = MakeUniformCycles({3, 5, 4});
  const QuboSignature sig_a = ComputeQuboSignature(a);
  for (std::uint64_t seed = 51; seed <= 54; ++seed) {
    const std::vector<int> perm = RandomPermutation(12, seed);
    const QuboModel b = Relabel(a, perm);
    EXPECT_EQ(ComputeQuboSignature(b).canonical_hash, sig_a.canonical_hash)
        << "seed " << seed;
  }
}

TEST(QuboCanonicalTest, IsolatedVariablesCountAsComponents) {
  // Two isolated variables vs one coupled pair with the same linear
  // terms: different component structure, different hash.
  const QuboModel isolated(0.0, {1.0, 1.0}, {});
  const QuboModel coupled(0.0, {1.0, 1.0}, {{{0, 1}, 0.5}});
  EXPECT_NE(ComputeQuboSignature(isolated).canonical_hash,
            ComputeQuboSignature(coupled).canonical_hash);
}

}  // namespace
}  // namespace qopt
