#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "anneal/simulated_annealer.h"
#include "bilp/bilp_to_qubo.h"
#include "common/random.h"
#include "decompose/partition.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "qubo/brute_force_solver.h"
#include "qubo/conversions.h"
#include "qubo/ising_model.h"
#include "qubo/qubo_model.h"

namespace qopt {
namespace {

QuboModel MakeRandomQubo(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  QuboModel qubo(n);
  qubo.AddOffset(rng.NextDouble(-5.0, 5.0));
  for (int i = 0; i < n; ++i) qubo.AddLinear(i, rng.NextDouble(-3.0, 3.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(density)) {
        qubo.AddQuadratic(i, j, rng.NextDouble(-3.0, 3.0));
      }
    }
  }
  return qubo;
}

std::vector<std::uint8_t> BitsFromIndex(std::uint64_t index, int n) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    bits[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((index >> i) & 1u);
  }
  return bits;
}

TEST(QuboModelTest, EmptyModelEnergyIsOffset) {
  QuboModel qubo(3);
  qubo.AddOffset(2.5);
  EXPECT_DOUBLE_EQ(qubo.Energy({0, 0, 0}), 2.5);
  EXPECT_DOUBLE_EQ(qubo.Energy({1, 1, 1}), 2.5);
}

TEST(QuboModelTest, LinearAndQuadraticAccumulate) {
  QuboModel qubo(2);
  qubo.AddLinear(0, 1.0);
  qubo.AddLinear(0, 2.0);
  qubo.AddQuadratic(0, 1, 0.5);
  qubo.AddQuadratic(1, 0, 0.25);  // normalized to the same entry
  EXPECT_DOUBLE_EQ(qubo.Linear(0), 3.0);
  EXPECT_DOUBLE_EQ(qubo.Quadratic(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(qubo.Quadratic(1, 0), 0.75);
  EXPECT_EQ(qubo.NumQuadraticTerms(), 1);
}

TEST(QuboModelTest, EnergyOfKnownAssignments) {
  QuboModel qubo(2);
  qubo.AddLinear(0, 1.0);
  qubo.AddLinear(1, -2.0);
  qubo.AddQuadratic(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(qubo.Energy({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(qubo.Energy({1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(qubo.Energy({0, 1}), -2.0);
  EXPECT_DOUBLE_EQ(qubo.Energy({1, 1}), 3.0);
}

TEST(QuboModelTest, CompressRemovesZeroTerms) {
  QuboModel qubo(3);
  qubo.AddQuadratic(0, 1, 1.0);
  qubo.AddQuadratic(0, 1, -1.0);
  qubo.AddQuadratic(1, 2, 2.0);
  EXPECT_EQ(qubo.NumQuadraticTerms(), 2);
  qubo.Compress();
  EXPECT_EQ(qubo.NumQuadraticTerms(), 1);
  EXPECT_DOUBLE_EQ(qubo.Quadratic(1, 2), 2.0);
}

TEST(QuboModelTest, InteractionGraphMatchesTerms) {
  QuboModel qubo(4);
  qubo.AddQuadratic(0, 2, 1.0);
  qubo.AddQuadratic(1, 3, -1.0);
  const SimpleGraph graph = qubo.InteractionGraph();
  EXPECT_EQ(graph.NumVertices(), 4);
  EXPECT_EQ(graph.NumEdges(), 2);
  EXPECT_TRUE(graph.HasEdge(0, 2));
  EXPECT_TRUE(graph.HasEdge(1, 3));
}

class QuboFlipDeltaTest : public ::testing::TestWithParam<int> {};

TEST_P(QuboFlipDeltaTest, FlipDeltaMatchesEnergyDifference) {
  const QuboModel qubo = MakeRandomQubo(8, 0.4, GetParam());
  const CsrAdjacency adjacency = qubo.BuildCsrAdjacency();
  Rng rng(GetParam() + 100);
  std::vector<std::uint8_t> bits(8);
  for (auto& b : bits) b = rng.NextBool() ? 1 : 0;
  for (int i = 0; i < 8; ++i) {
    const double before = qubo.Energy(bits);
    const double delta = qubo.FlipDelta(bits, i, adjacency);
    bits[static_cast<std::size_t>(i)] ^= 1;
    EXPECT_NEAR(qubo.Energy(bits), before + delta, 1e-9);
    bits[static_cast<std::size_t>(i)] ^= 1;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, QuboFlipDeltaTest,
                         ::testing::Range(0, 8));

TEST(IsingModelTest, EnergyOfKnownSpins) {
  IsingModel ising(2);
  ising.AddField(0, 0.5);
  ising.AddCoupling(0, 1, -1.0);
  EXPECT_DOUBLE_EQ(ising.Energy({1, 1}), 0.5 - 1.0);
  EXPECT_DOUBLE_EQ(ising.Energy({-1, 1}), -0.5 + 1.0);
  EXPECT_DOUBLE_EQ(ising.Energy({-1, -1}), -0.5 - 1.0);
}

TEST(IsingModelTest, CouplingNormalization) {
  IsingModel ising(3);
  ising.AddCoupling(2, 0, 1.5);
  EXPECT_DOUBLE_EQ(ising.Coupling(0, 2), 1.5);
  const auto couplings = ising.Couplings();
  ASSERT_EQ(couplings.size(), 1u);
  EXPECT_EQ(couplings[0].first, std::make_pair(0, 2));
}

class ConversionRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ConversionRoundTripTest, QuboToIsingPreservesAllEnergies) {
  const int n = 6;
  const QuboModel qubo = MakeRandomQubo(n, 0.5, GetParam());
  const IsingModel ising = QuboToIsing(qubo);
  for (std::uint64_t index = 0; index < (1u << n); ++index) {
    const auto bits = BitsFromIndex(index, n);
    EXPECT_NEAR(qubo.Energy(bits), ising.Energy(BitsToSpins(bits)), 1e-9);
  }
}

TEST_P(ConversionRoundTripTest, IsingToQuboIsInverse) {
  const int n = 6;
  const QuboModel qubo = MakeRandomQubo(n, 0.5, GetParam());
  const QuboModel round_trip = IsingToQubo(QuboToIsing(qubo));
  for (std::uint64_t index = 0; index < (1u << n); ++index) {
    const auto bits = BitsFromIndex(index, n);
    EXPECT_NEAR(qubo.Energy(bits), round_trip.Energy(bits), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ConversionRoundTripTest,
                         ::testing::Range(0, 10));

TEST(ConversionsTest, BitsToSpinsAndBack) {
  const std::vector<std::uint8_t> bits = {0, 1, 1, 0};
  const std::vector<int> spins = BitsToSpins(bits);
  EXPECT_EQ(spins, (std::vector<int>{-1, 1, 1, -1}));
  EXPECT_EQ(SpinsToBits(spins), bits);
}

TEST(BruteForceTest, FindsKnownMinimum) {
  QuboModel qubo(2);
  qubo.AddLinear(0, -1.0);
  qubo.AddLinear(1, -1.0);
  qubo.AddQuadratic(0, 1, 3.0);
  const BruteForceResult result = TrySolveQuboBruteForce(qubo).value();
  EXPECT_DOUBLE_EQ(result.best_energy, -1.0);
  // Two symmetric optima: {1,0} and {0,1}.
  EXPECT_EQ(result.num_optima, 2u);
}

class BruteForceParamTest : public ::testing::TestWithParam<int> {};

TEST_P(BruteForceParamTest, MatchesNaiveEnumeration) {
  const int n = 10;
  const QuboModel qubo = MakeRandomQubo(n, 0.3, GetParam());
  const BruteForceResult result = TrySolveQuboBruteForce(qubo).value();
  double naive_best = qubo.Energy(BitsFromIndex(0, n));
  for (std::uint64_t index = 1; index < (1u << n); ++index) {
    naive_best = std::min(naive_best, qubo.Energy(BitsFromIndex(index, n)));
  }
  EXPECT_NEAR(result.best_energy, naive_best, 1e-8);
  EXPECT_NEAR(qubo.Energy(result.best_bits), naive_best, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BruteForceParamTest,
                         ::testing::Range(0, 8));

TEST(BruteForceTest, ZeroVariablesHandled) {
  QuboModel qubo(0);
  qubo.AddOffset(3.0);
  const BruteForceResult result = TrySolveQuboBruteForce(qubo).value();
  EXPECT_DOUBLE_EQ(result.best_energy, 3.0);
}

TEST(BruteForceTest, HardCapRejectsOversizedProblems) {
  // 2^27 assignments are past the sub-second budget; one past
  // kMaxBruteForceVariables the oracle must refuse with kResourceExhausted
  // (a simulation budget, not a malformed input) instead of walking.
  const QuboModel oversized(kMaxBruteForceVariables + 1);
  const auto refused = TrySolveQuboBruteForce(oversized);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(refused.status().message(),
            "exact oracle enumerates 2^27 assignments; limit is 26 "
            "variables");
}

// ---------------------------------------------------------------------------
// PinSignDefiniteBits: differential checks against the exact oracle and SA.
// ---------------------------------------------------------------------------

/// A QUBO whose every variable is sign-definite at `target`'s bit: random
/// sparse couplings, then each linear term set so that the variable's
/// margin (lo_i for a 0, -hi_i for a 1) is a random value in [0.25, 2].
QuboModel MakeForcedQubo(const std::vector<std::uint8_t>& target,
                         std::uint64_t seed) {
  const int n = static_cast<int>(target.size());
  Rng rng(seed);
  QuboModel qubo(n);
  std::vector<double> negative(static_cast<std::size_t>(n), 0.0);
  std::vector<double> positive(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!rng.NextBool(0.4)) continue;
      const double c = rng.NextDouble(-3.0, 3.0);
      qubo.AddQuadratic(i, j, c);
      for (const int v : {i, j}) {
        (c < 0.0 ? negative : positive)[static_cast<std::size_t>(v)] += c;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    const double margin = rng.NextDouble(0.25, 2.0);
    qubo.AddLinear(i, target[u] ? -positive[u] - margin
                                : -negative[u] + margin);
  }
  return qubo;
}

/// Asserts that `forced` is what the exact oracle and SA (one read of one
/// sweep, and the decomposer's 8 x 1000 block budget) all return.
void ExpectSolversAgree(const QuboModel& qubo,
                        const std::vector<std::uint8_t>& forced,
                        std::uint64_t seed) {
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  EXPECT_EQ(exact.best_bits, forced);
  EXPECT_EQ(exact.num_optima, 1u);
  for (const auto& [reads, sweeps] : {std::pair{1, 1}, std::pair{8, 1000}}) {
    AnnealOptions anneal;
    anneal.num_reads = reads;
    anneal.num_sweeps = sweeps;
    anneal.seed = seed;
    EXPECT_EQ(TrySolveQuboWithAnnealing(qubo, anneal).value().best_bits, forced)
        << reads << " x " << sweeps;
  }
}

TEST(PinSignDefiniteBitsTest, PinsEveryBitOfGeneratedForcedQubos) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(seed);
    const int n = 1 + static_cast<int>(seed % 20);
    Rng rng(seed + 1000);
    std::vector<std::uint8_t> target(static_cast<std::size_t>(n));
    for (std::uint8_t& bit : target) bit = rng.NextBool(0.5) ? 1 : 0;
    const QuboModel qubo = MakeForcedQubo(target, seed);
    const PinnedQubo pinned = PinSignDefiniteBits(qubo);
    EXPECT_TRUE(pinned.free.empty());
    EXPECT_EQ(pinned.core.NumVariables(), 0);
    EXPECT_EQ(pinned.bits, target);
    ExpectSolversAgree(qubo, pinned.bits, seed + 1);
  }
}

/// The sub-QUBO of `block` with every other variable clamped to
/// `incumbent`, as the decomposer builds it: in-block couplings stay,
/// couplings to a clamped 1 fold into the linear term.
QuboModel ClampBlock(const QuboModel& qubo, const CsrAdjacency& adjacency,
                     const std::vector<int>& block,
                     const std::vector<std::uint8_t>& incumbent) {
  const int m = static_cast<int>(block.size());
  QuboModel sub(m);
  for (int local = 0; local < m; ++local) {
    const int global = block[static_cast<std::size_t>(local)];
    sub.AddLinear(local, qubo.Linear(global));
    const std::size_t u = static_cast<std::size_t>(global);
    for (std::size_t k = adjacency.offsets[u]; k < adjacency.offsets[u + 1];
         ++k) {
      const int neighbor = adjacency.neighbors[k];
      const auto it = std::lower_bound(block.begin(), block.end(), neighbor);
      if (it != block.end() && *it == neighbor) {
        const int other = static_cast<int>(it - block.begin());
        if (other > local) sub.AddQuadratic(local, other, adjacency.coeffs[k]);
      } else if (incumbent[static_cast<std::size_t>(neighbor)]) {
        sub.AddLinear(local, adjacency.coeffs[k]);
      }
    }
  }
  return sub;
}

/// The blocks a decomposed join-order solve actually meets: a 10-relation
/// chain's penalty-dominated QUBO, partitioned into blocks of at most 16
/// and clamped against the all-zeros start and against random incumbents.
std::vector<QuboModel> ClampedJoinOrderBlocks() {
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  const StatusOr<JoinOrderEncoding> encoding =
      TryEncodeJoinOrderAsBilp(GenerateChainQuery(10, 100.0, 0.2), encoder);
  EXPECT_TRUE(encoding.ok()) << encoding.status().ToString();
  if (!encoding.ok()) return {};
  const QuboModel qubo = EncodeBilpAsQubo(encoding->bilp).qubo;
  const CsrAdjacency adjacency = qubo.BuildCsrAdjacency();
  const std::size_t n = static_cast<std::size_t>(qubo.NumVariables());
  std::vector<QuboModel> blocks;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> incumbent(n, 0);
    if (seed > 0) {
      for (std::uint8_t& bit : incumbent) bit = rng.NextBool(0.3) ? 1 : 0;
    }
    for (const std::vector<int>& block : PartitionQuboVariables(
             qubo, adjacency, /*max_block_size=*/16, seed)) {
      blocks.push_back(ClampBlock(qubo, adjacency, block, incumbent));
    }
  }
  return blocks;
}

/// True when every variable is sign-definite whatever the others hold:
/// the one-pass test, with no folding of pinned neighbours.
bool EveryBitSignDefinite(const QuboModel& qubo) {
  const CsrAdjacency adjacency = qubo.BuildCsrAdjacency();
  for (int i = 0; i < qubo.NumVariables(); ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    double lo = qubo.Linear(i);
    double hi = lo;
    double magnitude = std::abs(lo);
    for (std::size_t k = adjacency.offsets[u]; k < adjacency.offsets[u + 1];
         ++k) {
      (adjacency.coeffs[k] < 0.0 ? lo : hi) += adjacency.coeffs[k];
      magnitude += std::abs(adjacency.coeffs[k]);
    }
    const double margin = 1e-12 + 1e-9 * magnitude;
    if (!(lo > margin || hi < -margin)) return false;
  }
  return true;
}

TEST(PinSignDefiniteBitsTest, PinsEveryBitOfForcedClampedJoinOrderBlocks) {
  int blocks = 0;
  int one_pass_forced = 0;
  int pinned_whole = 0;
  for (const QuboModel& sub : ClampedJoinOrderBlocks()) {
    SCOPED_TRACE(testing::Message() << "block " << blocks);
    ++blocks;
    const PinnedQubo pinned = PinSignDefiniteBits(sub);
    if (EveryBitSignDefinite(sub)) {
      ++one_pass_forced;
      EXPECT_TRUE(pinned.free.empty());
    }
    if (!pinned.free.empty()) continue;
    ++pinned_whole;
    ExpectSolversAgree(sub, pinned.bits, static_cast<std::uint64_t>(blocks));
  }
  EXPECT_EQ(blocks, 152);
  EXPECT_EQ(one_pass_forced, 45);
  // Folding pins whole blocks the one-pass test misses, yet some blocks
  // keep a free core, so neither branch passes vacuously.
  EXPECT_GE(pinned_whole, one_pass_forced);
  EXPECT_LT(pinned_whole, blocks);
}

TEST(PinSignDefiniteBitsTest, LeavesStraddlingTiedAndNanBitsFree) {
  // Two straddling variables: each wants 1 exactly when the other is 1.
  QuboModel straddle(2);
  straddle.AddLinear(0, 1.0);
  straddle.AddLinear(1, 1.0);
  straddle.AddQuadratic(0, 1, -2.0);
  EXPECT_EQ(PinSignDefiniteBits(straddle).free, (std::vector<int>{0, 1}));

  // x1 pins on (hi = -5), which leaves x0 a margin of exactly 0: with
  // x1 = 1, x0 = 0 and x0 = 1 tie.
  QuboModel tie(2);
  tie.AddLinear(0, 1.0);
  tie.AddLinear(1, -5.0);
  tie.AddQuadratic(0, 1, -1.0);
  const PinnedQubo tied = PinSignDefiniteBits(tie);
  ASSERT_EQ(tied.free, (std::vector<int>{0}));
  EXPECT_EQ(tied.bits, (std::vector<std::uint8_t>{0, 1}));
  EXPECT_EQ(tied.core.Linear(0), 0.0);
  QuboModel free_bit(1);  // no terms at all: both values tie
  EXPECT_EQ(PinSignDefiniteBits(free_bit).free, (std::vector<int>{0}));

  // A margin inside SA's 1e-12 descent tolerance counts as a tie too.
  QuboModel tiny(1);
  tiny.AddLinear(0, 1e-13);
  EXPECT_EQ(PinSignDefiniteBits(tiny).free, (std::vector<int>{0}));

  // A NaN coefficient, in the couplings or the linear part.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  QuboModel nan_coupling(2);
  nan_coupling.AddLinear(0, 4.0);
  nan_coupling.AddLinear(1, 4.0);
  nan_coupling.AddQuadratic(0, 1, nan);
  EXPECT_EQ(PinSignDefiniteBits(nan_coupling).free, (std::vector<int>{0, 1}));
  QuboModel nan_linear(1);
  nan_linear.AddLinear(0, nan);
  EXPECT_EQ(PinSignDefiniteBits(nan_linear).free, (std::vector<int>{0}));

  // A clear margin pins both bits in one pass: x0 off (lo = 2 - 1), x1 on
  // (hi = -5 + 0).
  QuboModel forced(2);
  forced.AddLinear(0, 2.0);
  forced.AddLinear(1, -5.0);
  forced.AddQuadratic(0, 1, -1.0);
  const PinnedQubo both = PinSignDefiniteBits(forced);
  EXPECT_TRUE(both.free.empty());
  EXPECT_EQ(both.bits, (std::vector<std::uint8_t>{0, 1}));
}

TEST(PinSignDefiniteBitsTest, FoldsPinnedBitsUntilNothingMorePins) {
  // x0 straddles on the first pass (lo = 1 - 2, hi = 1 + 0.5), but x1
  // pins on (hi = -5), and folding its coupling leaves x0 at most
  // 1 - 2 + 0.5 < 0: on, on the second pass.
  QuboModel qubo(4);
  qubo.AddOffset(2.5);
  qubo.AddLinear(0, 1.0);
  qubo.AddLinear(1, -5.0);
  qubo.AddQuadratic(0, 1, -2.0);
  qubo.AddQuadratic(0, 2, 0.5);
  // x2 and x3 straddle whatever x0 and x1 hold: each wants 1 exactly
  // when the other is 1.
  qubo.AddLinear(2, 1.0);
  qubo.AddLinear(3, 1.0);
  qubo.AddQuadratic(2, 3, -2.0);
  const PinnedQubo pinned = PinSignDefiniteBits(qubo);
  EXPECT_EQ(pinned.bits, (std::vector<std::uint8_t>{1, 1, 0, 0}));
  EXPECT_EQ(pinned.free, (std::vector<int>{2, 3}));
  // x0's coupling folds into x2's linear term; the offset carries over.
  ASSERT_EQ(pinned.core.NumVariables(), 2);
  EXPECT_EQ(pinned.core.Linear(0), 1.5);
  EXPECT_EQ(pinned.core.Linear(1), 1.0);
  EXPECT_EQ(pinned.core.Quadratic(0, 1), -2.0);
  EXPECT_EQ(pinned.core.NumQuadraticTerms(), 1);
  EXPECT_EQ(pinned.core.Offset(), 2.5);
  EXPECT_EQ(pinned.Expand({1, 0}), (std::vector<std::uint8_t>{1, 1, 1, 0}));
}

/// Energies of every assignment of `vars` (which `bits` must hold at 0),
/// the rest of `bits` fixed, in Gray-code order: entry k is the energy with
/// vars[t] = bit t of k ^ (k >> 1).
std::vector<double> GrayCodeEnergies(const QuboModel& qubo,
                                     std::vector<std::uint8_t> bits,
                                     const std::vector<int>& vars) {
  const CsrAdjacency adjacency = qubo.BuildCsrAdjacency();
  std::vector<double> energies(std::size_t{1} << vars.size());
  double energy = qubo.Energy(bits);
  energies[0] = energy;
  for (std::size_t k = 1; k < energies.size(); ++k) {
    const int v = vars[static_cast<std::size_t>(std::countr_zero(k))];
    energy += qubo.FlipDelta(bits, v, adjacency);
    bits[static_cast<std::size_t>(v)] ^= 1;
    energies[k] = energy;
  }
  return energies;
}

std::vector<int> Iota(int n) {
  std::vector<int> values(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) values[static_cast<std::size_t>(i)] = i;
  return values;
}

/// The differential contract of the pin rule on one QUBO: every exact
/// minimizer agrees with every pin, the core plus the pins reproduces the
/// input's energy up to one constant, and the core pins nothing more.
/// Returns the number of bits pinned.
int ExpectPinsArePersistent(const QuboModel& qubo) {
  const int n = qubo.NumVariables();
  const PinnedQubo pinned = PinSignDefiniteBits(qubo);
  const std::size_t m = pinned.free.size();
  EXPECT_EQ(pinned.core.NumVariables(), static_cast<int>(m));

  const std::vector<double> energies = GrayCodeEnergies(
      qubo, std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0),
      Iota(n));
  const double best = *std::min_element(energies.begin(), energies.end());
  const double tie = 1e-9 * (1.0 + std::abs(best));
  std::vector<std::uint8_t> is_free(static_cast<std::size_t>(n), 0);
  for (const int v : pinned.free) is_free[static_cast<std::size_t>(v)] = 1;
  for (std::size_t k = 0; k < energies.size(); ++k) {
    if (energies[k] > best + tie) continue;
    const std::size_t gray = k ^ (k >> 1);
    for (int i = 0; i < n; ++i) {
      const std::size_t u = static_cast<std::size_t>(i);
      if (is_free[u]) continue;
      EXPECT_EQ((gray >> u) & 1, pinned.bits[u])
          << "minimizer " << gray << " disagrees with pinned bit " << i;
    }
  }

  const std::vector<double> expanded =
      GrayCodeEnergies(qubo, pinned.bits, pinned.free);
  const std::vector<double> core = GrayCodeEnergies(
      pinned.core, std::vector<std::uint8_t>(m, 0),
      Iota(static_cast<int>(m)));
  const double constant = expanded[0] - core[0];
  for (std::size_t k = 0; k < core.size(); ++k) {
    EXPECT_NEAR(expanded[k] - core[k], constant,
                1e-9 * (1.0 + std::abs(expanded[k])))
        << "core assignment " << (k ^ (k >> 1));
  }

  EXPECT_EQ(PinSignDefiniteBits(pinned.core).free.size(), m);
  return n - static_cast<int>(m);
}

TEST(PinSignDefiniteBitsTest, PinsArePersistentOnGeneratedQubos) {
  // Strong linear terms against weaker couplings: some bits are
  // sign-definite at once, some only after folding, some never.
  int pinned_bits = 0;
  int free_bits = 0;
  int partial = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(seed);
    const int n = 2 + static_cast<int>(seed % 15);
    Rng rng(seed + 5000);
    QuboModel qubo(n);
    qubo.AddOffset(rng.NextDouble(-5.0, 5.0));
    for (int i = 0; i < n; ++i) qubo.AddLinear(i, rng.NextDouble(-6.0, 6.0));
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.NextBool(0.35)) {
          qubo.AddQuadratic(i, j, rng.NextDouble(-4.0, 4.0));
        }
      }
    }
    const int pinned = ExpectPinsArePersistent(qubo);
    pinned_bits += pinned;
    free_bits += n - pinned;
    if (pinned > 0 && pinned < n) ++partial;
  }
  EXPECT_GT(pinned_bits, 0);
  EXPECT_GT(free_bits, 0);
  EXPECT_GT(partial, 0);
}

TEST(PinSignDefiniteBitsTest, PinsArePersistentOnClampedJoinOrderBlocks) {
  int partial = 0;
  for (const QuboModel& sub : ClampedJoinOrderBlocks()) {
    const int pinned = ExpectPinsArePersistent(sub);
    if (pinned > 0 && pinned < sub.NumVariables()) ++partial;
  }
  EXPECT_GT(partial, 0);
}

}  // namespace
}  // namespace qopt
