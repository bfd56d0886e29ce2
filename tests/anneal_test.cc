#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "anneal/anneal_internal.h"
#include "anneal/chimera.h"
#include "anneal/embedding.h"
#include "anneal/embedding_composite.h"
#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "anneal/simulated_annealer.h"
#include "common/random.h"
#include "decompose/decomposer.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/brute_force_solver.h"

namespace qopt {
namespace {

QuboBuilder RandomQuboTerms(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  QuboBuilder qubo(n);
  for (int i = 0; i < n; ++i) qubo.AddLinear(i, rng.NextDouble(-2.0, 2.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(density)) {
        qubo.AddQuadratic(i, j, rng.NextDouble(-2.0, 2.0));
      }
    }
  }
  return qubo;
}

QuboModel MakeRandomQubo(int n, double density, std::uint64_t seed) {
  return RandomQuboTerms(n, density, seed).Build();
}

// --- Simulated annealing -----------------------------------------------------

class AnnealerParamTest : public ::testing::TestWithParam<int> {};

TEST_P(AnnealerParamTest, ReachesGroundStateOfRandomProblems) {
  const QuboModel qubo = MakeRandomQubo(12, 0.4, GetParam());
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  AnnealOptions options;
  options.num_reads = 20;
  options.num_sweeps = 400;
  options.seed = GetParam() + 1;
  const AnnealResult result = TrySolveQuboWithAnnealing(qubo, options).value();
  EXPECT_NEAR(result.best_energy, exact.best_energy, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AnnealerParamTest,
                         ::testing::Range(0, 6));

TEST(AnnealerTest, DeterministicForFixedSeed) {
  const QuboModel qubo = MakeRandomQubo(10, 0.5, 99);
  AnnealOptions options;
  options.seed = 42;
  const AnnealResult a = TrySolveQuboWithAnnealing(qubo, options).value();
  const AnnealResult b = TrySolveQuboWithAnnealing(qubo, options).value();
  EXPECT_EQ(a.best_bits, b.best_bits);
  EXPECT_EQ(a.read_energies, b.read_energies);
}

TEST(AnnealerTest, ReadEnergiesSizeMatchesReads) {
  const QuboModel qubo = MakeRandomQubo(6, 0.5, 1);
  AnnealOptions options;
  options.num_reads = 7;
  const AnnealResult result = TrySolveQuboWithAnnealing(qubo, options).value();
  EXPECT_EQ(result.read_energies.size(), 7u);
  const double best =
      *std::min_element(result.read_energies.begin(),
                        result.read_energies.end());
  EXPECT_NEAR(result.best_energy, best, 1e-8);
}

TEST(AnnealerTest, GroupFlipEnergiesMatchRecomputation) {
  // Pins the incremental group-flip delta (local-field cache + in-group
  // pairwise correction) to the ground truth: every read's tracked final
  // energy must agree with a from-scratch Energy() recompute of its bits,
  // on both sides of the dense-row layout threshold and with overlapping
  // groups. A wrong pairwise term corrupts the tracked energies without
  // necessarily changing which bits win, so this catches what the
  // ground-state tests cannot.
  for (const double density : {0.15, 0.7}) {
    const QuboModel qubo = MakeRandomQubo(14, density, 21);
    AnnealOptions options;
    options.num_reads = 10;
    options.num_sweeps = 250;
    options.seed = 17;
    options.flip_groups = {{0, 1}, {2, 5, 9}, {1, 2, 13}};
    const AnnealResult result =
        TrySolveQuboWithAnnealing(qubo, options).value();
    ASSERT_EQ(result.read_energies.size(), 10u);
    const double best = *std::min_element(result.read_energies.begin(),
                                          result.read_energies.end());
    EXPECT_NEAR(best, result.best_energy, 1e-8) << "density " << density;
    EXPECT_EQ(result.best_energy, qubo.Energy(result.best_bits));

    // The joint proposals must also still reach the optimum.
    const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
    EXPECT_NEAR(result.best_energy, exact.best_energy, 1e-8);
  }
}

// Exact text forms for the golden pins below: hexfloat is a lossless
// spelling of a double's bit pattern, so equal strings mean equal bits.
std::string HexDoubles(const std::vector<double>& values) {
  std::ostringstream out;
  out << std::hexfloat;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : " ") << values[i];
  }
  return out.str();
}

std::string BitString(const std::vector<std::uint8_t>& bits) {
  std::string out;
  for (std::uint8_t b : bits) out += b ? '1' : '0';
  return out;
}

/// A 40-variable sparse problem with ferromagnetic couplings inside each
/// flip group, so that the group moves' pairwise correction is non-zero.
/// The groups cover size 1, size 3, an overlap ({0,1,2} and {11,2,7}
/// share 2) and a member order that is not index-sorted.
QuboModel MakeGroupedQubo(std::vector<std::vector<int>>* groups) {
  QuboBuilder qubo = RandomQuboTerms(40, 0.1, 302);
  *groups = {{5}, {0, 1, 2}, {11, 2, 7}, {20, 21, 22, 23}, {33}, {31, 30}};
  for (const auto& group : *groups) {
    for (std::size_t a = 0; a < group.size(); ++a) {
      for (std::size_t b = a + 1; b < group.size(); ++b) {
        qubo.AddQuadratic(group[a], group[b], -1.5);
      }
    }
  }
  return std::move(qubo).Build();
}

/// The shape of a decomposition block at the facade's clamp: a dense
/// 24-variable QUBO with small random costs under large one-hot penalties
/// P·(1 − Σ x)² over four rows of six, so most uphill proposals are
/// penalty-sized and the cold end of the schedule freezes them out.
QuboModel MakePenaltyBlock(std::uint64_t seed) {
  constexpr int kRows = 4;
  constexpr int kCols = 6;
  constexpr double kPenalty = 10.0;
  QuboBuilder qubo = RandomQuboTerms(kRows * kCols, 0.4, seed);
  for (int r = 0; r < kRows; ++r) {
    for (int a = 0; a < kCols; ++a) {
      qubo.AddLinear(r * kCols + a, -kPenalty);
      for (int b = a + 1; b < kCols; ++b) {
        qubo.AddQuadratic(r * kCols + a, r * kCols + b, 2.0 * kPenalty);
      }
    }
    qubo.AddOffset(kPenalty);
  }
  return std::move(qubo).Build();
}

AnnealOptions PinnedOptions(int reads, int sweeps, std::uint64_t seed) {
  AnnealOptions options;
  options.num_reads = reads;
  options.num_sweeps = sweeps;
  options.seed = seed;
  return options;
}

struct PinnedCase {
  const char* name;
  QuboModel qubo;
  AnnealOptions options;
  const char* best_bits;
  const char* read_energies;
};

// Golden outputs of the sweep kernel, recorded before its fast path
// landed. Any change to a read's RNG consumption or to the order of its
// floating-point operations shows up here as a changed bit pattern (the
// tracked read energies differ in their last bits when it does). The
// thread-invariance tests cannot see such a change, because it moves
// every configuration at once.
std::vector<PinnedCase> PinnedCases() {
  std::vector<std::vector<int>> groups;
  const QuboModel grouped = MakeGroupedQubo(&groups);
  AnnealOptions grouped_options = PinnedOptions(6, 200, 9);
  grouped_options.flip_groups = groups;
  // Cold schedule: beta * delta > 40 on most uphill proposals.
  AnnealOptions cold_options = grouped_options;
  cold_options.beta_min = 20.0;
  cold_options.beta_max = 200.0;
  // The pack edges of a kernel that anneals several reads in lock-step:
  // one read, partial last packs of 4- and 8-lane kernels, several packs,
  // a single variable, a single sweep, and the facade's clamped
  // decomposition block.
  AnnealOptions grouped9 = grouped_options;
  grouped9.num_reads = 9;
  AnnealOptions grouped13 = grouped_options;
  grouped13.num_reads = 13;
  grouped13.num_sweeps = 120;
  AnnealOptions grouped_one_sweep = grouped_options;
  grouped_one_sweep.num_sweeps = 1;
  QuboBuilder single(1);
  single.AddLinear(0, 0.75);
  return {
      {"reads1", MakeRandomQubo(26, 0.5, 301), PinnedOptions(1, 150, 21),
       "11101110001110011110101001",
       "-0x1.e943883adbbe9p+4"},
      {"reads5", MakeRandomQubo(40, 0.1, 302), PinnedOptions(5, 150, 22),
       "0111111010011110110011010101011111110001",
       "-0x1.5afb405591ed3p+5 -0x1.5afb405591ed9p+5 -0x1.50028b182d859p+5 "
       "-0x1.5afb405591ed4p+5 -0x1.50028b182d857p+5"},
      {"reads9_grouped", grouped, grouped9,
       "1111111110011110010011110111011111110101",
       "-0x1.c83db4a37d862p+5 -0x1.c83db4a37d872p+5 -0x1.c83db4a37d86p+5 "
       "-0x1.c83db4a37d85ep+5 -0x1.c83db4a37d86bp+5 -0x1.c83db4a37d856p+5 "
       "-0x1.c83db4a37d86p+5 -0x1.c83db4a37d867p+5 -0x1.c83db4a37d866p+5"},
      {"reads6_block", MakePenaltyBlock(306), PinnedOptions(6, 400, 25),
       "100000010000100000000010",
       "-0x1.f40183106e0ap-1 -0x1.b788a3d38a2ap-1 -0x1.31da47d8ab91ap+2 "
       "0x1.3ce1ade433ccep+2 -0x1.060cd9333d7e8p+0 -0x1.c95f381a9f778p+1"},
      {"reads10", MakeRandomQubo(40, 0.1, 302), PinnedOptions(10, 150, 26),
       "0111111010011110110011010101011111110001",
       "-0x1.5afb405591edap+5 -0x1.5afb405591edap+5 -0x1.5afb405591edap+5 "
       "-0x1.50028b182d852p+5 -0x1.50028b182d861p+5 -0x1.5afb405591ed8p+5 "
       "-0x1.5afb405591ed6p+5 -0x1.5afb405591edcp+5 -0x1.5afb405591ee6p+5 "
       "-0x1.5afb405591ed1p+5"},
      {"reads13_grouped", grouped, grouped13,
       "1111111110011110010011110111011111110101",
       "-0x1.c83db4a37d85fp+5 -0x1.c83db4a37d868p+5 -0x1.c83db4a37d85dp+5 "
       "-0x1.c83db4a37d865p+5 -0x1.c83db4a37d868p+5 -0x1.c83db4a37d861p+5 "
       "-0x1.c83db4a37d86ap+5 -0x1.c83db4a37d867p+5 -0x1.c83db4a37d85fp+5 "
       "-0x1.c83db4a37d862p+5 -0x1.c83db4a37d868p+5 -0x1.c83db4a37d86p+5 "
       "-0x1.c83db4a37d85fp+5"},
      {"n1", std::move(single).Build(), PinnedOptions(5, 20, 23), "0",
       "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0"},
      {"grouped_one_sweep", grouped, grouped_one_sweep,
       "1111111110011110010011110111011111110101",
       "-0x1.c83db4a37d863p+5 -0x1.c30b4b410c816p+5 -0x1.c83db4a37d862p+5 "
       "-0x1.c83db4a37d866p+5 -0x1.c30b4b410c816p+5 -0x1.c83db4a37d862p+5"},
      {"decompose_block", MakePenaltyBlock(305), PinnedOptions(8, 1000, 24),
       "000001000010000010100000",
       "0x1.11aae6569accp+0 -0x1.ff36ad20f4b6p-1 0x1.96f2caa27da54p+1 "
       "0x1.6512f81e3c81p-1 0x1.2976d07122884p+1 0x1.11aae6569a2bp+0 "
       "-0x1.0c7fa60711b5p+2 0x1.2f58c3822361p-1"},
      {"dense", MakeRandomQubo(26, 0.5, 301), PinnedOptions(6, 200, 7),
       "10111110111001001111101100",
       "-0x1.0220ca59afe66p+5 -0x1.0220ca59afe61p+5 -0x1.0220ca59afe62p+5 "
       "-0x1.0220ca59afe61p+5 -0x1.0220ca59afe63p+5 -0x1.0220ca59afe65p+5"},
      {"sparse", MakeRandomQubo(40, 0.1, 302), PinnedOptions(6, 200, 8),
       "0111111010011110110011010101011111110001",
       "-0x1.5afb405591edep+5 -0x1.5afb405591eeap+5 -0x1.5afb405591ee2p+5 "
       "-0x1.50028b182d84dp+5 -0x1.5afb405591ee3p+5 -0x1.5afb405591edcp+5"},
      {"grouped", grouped, grouped_options,
       "1111111110011110010011110111011111110101",
       "-0x1.c83db4a37d862p+5 -0x1.c83db4a37d872p+5 -0x1.c83db4a37d86p+5 "
       "-0x1.c83db4a37d85ep+5 -0x1.c83db4a37d86bp+5 -0x1.c83db4a37d856p+5"},
      {"grouped_cold", grouped, cold_options,
       "1111111110011110010011110111011111110101",
       "-0x1.c83db4a37d863p+5 -0x1.bffbda0f39646p+5 -0x1.c83db4a37d862p+5 "
       "-0x1.bffbda0f39646p+5 -0x1.c83db4a37d862p+5 -0x1.c30b4b410c812p+5"},
  };
}

/// The golden rows at one pack width each (1, 4 and 8 lanes): every
/// width the host can run gives the same bits. An instance whose kernel
/// the host cannot run is skipped and names the instruction set it
/// lacks.
class SweepKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(SweepKernelTest, MatchesPinnedOutputs) {
  const int width = GetParam();
  if (width > anneal_internal::HostPackWidth()) {
    GTEST_SKIP() << "the " << width << "-lane pack needs "
                 << (width == 8 ? "AVX-512F and AVX-512DQ" : "AVX2")
                 << ", which this host lacks";
  }
  const std::vector<PinnedCase> cases = PinnedCases();
  for (const PinnedCase& c : cases) {
    const std::string name = c.name;
    if (name == "dense" || name == "reads1" || name == "decompose_block" ||
        name == "reads6_block") {
      ASSERT_GE(c.qubo.Density(), 0.35) << name;  // the dense-row layout
    }
  }
  ASSERT_LT(MakeRandomQubo(40, 0.1, 302).Density(), 0.35);  // the CSR layout
  for (const PinnedCase& c : cases) {
    const AnnealResult result =
        anneal_internal::TrySolveQuboWithAnnealingAtWidth(c.qubo, c.options,
                                                          width)
            .value();
    EXPECT_EQ(BitString(result.best_bits), c.best_bits) << c.name;
    EXPECT_EQ(HexDoubles(result.read_energies), c.read_energies) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PackWidths, SweepKernelTest, ::testing::Values(1, 4, 8),
    [](const ::testing::TestParamInfo<int>& param) {
      return "Width" + std::to_string(param.param);
    });

TEST(AnnealerTest, AtWidthRejectsWidthsWithoutAKernel) {
  const QuboModel qubo = MakeRandomQubo(6, 0.5, 1);
  for (const int width : {0, 2, 3, 16}) {
    EXPECT_EQ(anneal_internal::TrySolveQuboWithAnnealingAtWidth(
                  qubo, PinnedOptions(4, 10, 1), width)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "width " << width;
  }
}

/// The interaction graphs of the MQO problems the embedder pins below
/// run on (3 and 8 queries of 4 plans, generator seed 5), with their edges
/// added in the order the pinned chains were recorded with. The embedder
/// breaks ties in each vertex's neighbour order, which is edge insertion
/// order, so a chain pin fixes the order as well as the edge set.
/// QuboModel::InteractionGraph() adds the same edges in (i, j) order, on
/// which the embedder finds other chains; only the edge set is checked
/// against it here.
SimpleGraph PinnedMqoGraph(int num_queries) {
  static constexpr int kQueries3[][2] = {
      {7, 8}, {5, 11}, {4, 9}, {3, 8}, {1, 9}, {10, 11}, {9, 11}, {9, 10},
      {3, 4}, {8, 11}, {1, 6}, {8, 10}, {0, 1}, {0, 2}, {4, 5}, {0, 3}, {4, 6},
      {8, 9}, {1, 2}, {6, 10}, {1, 3}, {3, 9}, {5, 6}, {2, 3}, {4, 7}, {3, 10},
      {5, 7}, {6, 7}};
  static constexpr int kQueries8[][2] = {
      {25, 31}, {26, 29}, {25, 30}, {26, 28}, {23, 31}, {23, 25}, {21, 26},
      {17, 30}, {21, 25}, {16, 30}, {15, 31}, {19, 21}, {18, 22}, {15, 25},
      {14, 26}, {16, 23}, {12, 27}, {11, 28}, {10, 29}, {13, 17}, {12, 18},
      {10, 20}, {0, 30}, {1, 3}, {14, 24}, {13, 25}, {12, 26}, {7, 31},
      {30, 31}, {28, 30}, {28, 29}, {26, 27}, {21, 29}, {19, 31}, {24, 26},
      {22, 27}, {24, 25}, {21, 24}, {19, 26}, {22, 23}, {18, 25}, {17, 26},
      {12, 31}, {21, 22}, {20, 23}, {16, 26}, {12, 30}, {20, 22}, {15, 26},
      {14, 27}, {20, 21}, {12, 25}, {10, 27}, {9, 28}, {18, 19}, {1, 7}, {3, 5},
      {28, 31}, {29, 30}, {2, 3}, {0, 3}, {1, 2}, {25, 27}, {24, 27}, {25, 26},
      {21, 23}, {4, 5}, {0, 2}, {29, 31}, {0, 1}, {0, 10}, {1, 9}, {4, 6},
      {2, 8}, {11, 13}, {10, 14}, {3, 21}, {7, 17}, {1, 23}, {2, 22}, {10, 15},
      {0, 25}, {3, 22}, {12, 13}, {9, 16}, {1, 24}, {2, 23}, {4, 7}, {5, 6},
      {3, 8}, {0, 14}, {1, 13}, {3, 11}, {2, 20}, {3, 19}, {12, 17}, {10, 19},
      {9, 20}, {14, 15}, {2, 27}, {3, 26}, {5, 7}, {4, 8}, {5, 8}, {6, 7},
      {4, 9}, {14, 17}, {1, 30}, {3, 28}, {4, 27}, {15, 17}, {14, 18}, {13, 19},
      {1, 31}, {4, 28}, {8, 10}, {1, 17}, {3, 15}, {5, 13}, {10, 24}, {16, 18},
      {3, 31}, {7, 27}, {4, 30}, {5, 29}, {10, 26}, {9, 27}, {17, 19}, {5, 31},
      {0, 16}, {1, 15}, {3, 13}, {5, 11}, {6, 10}, {13, 22}, {9, 26}, {17, 18},
      {16, 19}, {5, 30}, {6, 29}, {0, 15}, {2, 13}, {3, 12}, {5, 10}, {7, 8},
      {8, 9}, {4, 13}, {7, 10}, {0, 19}, {8, 11}, {9, 10}, {1, 18}, {3, 16},
      {7, 12}, {5, 16}, {9, 12}, {10, 11}, {2, 19}, {7, 14}, {11, 15}, {4, 22},
      {12, 14}, {2, 24}, {6, 20}, {7, 19}, {11, 16}, {13, 14}, {12, 15},
      {6, 21}, {7, 20}, {10, 18}, {13, 15}, {0, 28}, {5, 23}, {8, 20}, {1, 27},
      {7, 21}, {9, 11}, {5, 15}, {7, 13}, {8, 12}, {15, 18}, {13, 20}, {12, 21},
      {11, 22}, {16, 17}, {7, 26}, {5, 28}, {8, 25}};
  SimpleGraph graph(4 * num_queries);
  const auto add = [&graph](const auto& edges) {
    for (const auto& [u, v] : edges) graph.AddEdge(u, v);
  };
  if (num_queries == 3) {
    add(kQueries3);
  } else {
    EXPECT_EQ(num_queries, 8);
    add(kQueries8);
  }
  MqoGeneratorOptions gen;
  gen.num_queries = num_queries;
  gen.plans_per_query = 4;
  gen.seed = 5;
  std::vector<std::pair<int, int>> recorded = graph.Edges();
  std::vector<std::pair<int, int>> encoded =
      EncodeMqoAsQubo(GenerateMqoProblem(gen)).qubo.InteractionGraph().Edges();
  std::sort(recorded.begin(), recorded.end());
  std::sort(encoded.begin(), encoded.end());
  EXPECT_EQ(recorded, encoded) << num_queries << " queries";
  return graph;
}

TEST(AnnealerTest, CallersThroughOtherLayersMatchPinnedOutputs) {
  // The two callers that reach the kernel through another layer: the
  // embedding composite (chains as flip groups, on Pegasus, embedded as
  // PinnedMqoGraph orders the edges) and the decomposer (SA as the block
  // solver).
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 4;
  gen.seed = 5;
  const QuboModel mqo = EncodeMqoAsQubo(GenerateMqoProblem(gen)).qubo;
  ASSERT_EQ(mqo.NumVariables(), 12);
  EmbeddedSolveOptions embedded;
  embedded.anneal = PinnedOptions(8, 200, 12);
  embedded.embed.seed = 12;
  const SimpleGraph pegasus = MakePegasus(4);
  const auto embedding =
      TryFindMinorEmbedding(PinnedMqoGraph(3), pegasus, embedded.embed);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  const auto on_topology = anneal_internal::TrySolveQuboOnFixedEmbedding(
      mqo, pegasus, *embedding, embedded);
  ASSERT_TRUE(on_topology.ok()) << on_topology.status().ToString();
  EXPECT_GT(on_topology->embedding.MaxChainLength(), 1);
  EXPECT_EQ(BitString(on_topology->bits), "010000100001");
  EXPECT_EQ(
      HexDoubles({on_topology->energy, on_topology->chain_break_fraction}),
      "-0x1.97cce12935adbp+6 0x0p+0");

  DecomposeOptions decompose;
  decompose.max_subproblem_size = 16;
  decompose.max_rounds = 3;
  decompose.seed = 13;
  const SubproblemSolver sa_blocks =
      [](const QuboModel& subproblem, std::uint64_t seed,
         const Deadline& deadline) -> StatusOr<SubproblemResult> {
    AnnealOptions options = PinnedOptions(4, 150, seed);
    options.deadline = deadline;
    QOPT_ASSIGN_OR_RETURN(const AnnealResult annealed,
                          TrySolveQuboWithAnnealing(subproblem, options));
    SubproblemResult result;
    result.bits = annealed.best_bits;
    return result;
  };
  const auto decomposed = SolveQuboDecomposed(MakeRandomQubo(60, 0.08, 303),
                                              decompose, sa_blocks);
  ASSERT_TRUE(decomposed.ok()) << decomposed.status().ToString();
  EXPECT_EQ(BitString(decomposed->bits),
            "100101100101110110101011101100000101100111111000110111000101");
  EXPECT_EQ(HexDoubles(decomposed->round_energies),
            "-0x1.2040e7c8355b3p+5 -0x1.233c9ab15828dp+5 "
            "-0x1.233c9ab15828dp+5");

  // A longer tabu walk per round, so the refinement's fixed tenure and
  // stall limit decide the stitched incumbents.
  decompose.refine_passes = 6;
  const auto refined = SolveQuboDecomposed(MakeRandomQubo(90, 0.1, 304),
                                           decompose, sa_blocks);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_EQ(HexDoubles(refined->round_energies),
            "-0x1.84ebdc9725779p+6 -0x1.84ebdc9725779p+6");
}

TEST(AnnealerTest, BracketedAcceptRuleEqualsExp) {
  // The sweep decides an uphill move from a bracket table and calls exp
  // only inside the bracket; every decision must equal u < exp(-x).
  using anneal_internal::AcceptUphill;
  using anneal_internal::MetropolisBracket;
  const MetropolisBracket& bracket = MetropolisBracket::Get();
  long long checked = 0;
  long long mismatches = 0;
  const auto check = [&](double x, double u) {
    // Past x = 40 the rule relies on u being 0 or at least 2^-53, the
    // smallest non-zero NextDouble(); smaller u never reach it.
    if (x > MetropolisBracket::kMaxX && u != 0.0 && u < 0x1.0p-53) return;
    ++checked;
    if (AcceptUphill(x, u, bracket) != (u < std::exp(-x))) {
      if (++mismatches <= 10) {
        ADD_FAILURE() << std::hexfloat << "x " << x << " u " << u;
      }
    }
  };
  // Seeded draws over the table's range and past it, u as the sweep
  // draws it (a multiple of 2^-53).
  Rng rng(2024);
  for (int draw = 0; draw < 10'000'000; ++draw) {
    const double x = rng.NextDouble() * 45.0;
    check(x, rng.NextDouble());
  }
  // Every bucket edge k/s and its neighbouring doubles, against u at,
  // just below and just above each bound of the buckets on both sides,
  // at exp(-x) itself and at 0.
  const double inf = std::numeric_limits<double>::infinity();
  for (int k = 0; k <= MetropolisBracket::kBuckets; ++k) {
    const double edge = k / MetropolisBracket::kScale;
    for (const double x :
         {std::nextafter(edge, -inf), edge, std::nextafter(edge, inf)}) {
      if (x < 0.0) continue;
      const int bucket = MetropolisBracket::Bucket(
          std::min(x, MetropolisBracket::kMaxX));
      std::vector<double> us = {0.0, std::exp(-x)};
      for (const int b : {bucket - 1, bucket, bucket + 1}) {
        if (b < 0 || b > MetropolisBracket::kBuckets) continue;
        for (const double bound : {bracket.Lower(b), bracket.Upper(b)}) {
          us.push_back(bound);
          us.push_back(std::nextafter(bound, 0.0));
          us.push_back(std::nextafter(bound, 1.0));
        }
      }
      us.push_back(std::nextafter(std::exp(-x), 0.0));
      us.push_back(std::nextafter(std::exp(-x), 1.0));
      for (const double u : us) {
        if (u < 1.0) check(x, u);
      }
    }
  }
  // The ends of the table and past it: x = 0, x = 40, the smallest u
  // above 0, and exp(-x) underflowing to 0 for a zero u.
  for (const double x : {0.0, 40.0, std::nextafter(40.0, inf), 41.0, 700.0,
                         746.0, inf}) {
    for (const double u : {0.0, 0x1.0p-53, 0.5, std::nextafter(1.0, 0.0)}) {
      check(x, u);
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << checked << " decisions";
  EXPECT_GT(checked, 10'000'000);
}

TEST(AnnealerTest, RejectsDuplicateFlipGroupMembers) {
  // A repeated member would be counted twice in the group delta but
  // flipped twice (a no-op) on commit, so the tracked energy would drift
  // from Energy(bits). The kernel refuses such a group up front.
  const QuboModel qubo = MakeRandomQubo(6, 0.5, 1);
  AnnealOptions options;
  options.num_reads = 1;
  options.num_sweeps = 1;
  options.flip_groups = {{1, 3}, {0, 2, 0}};
  const auto refused = TrySolveQuboWithAnnealing(qubo, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  options.flip_groups = {{1, 6}};
  EXPECT_EQ(TrySolveQuboWithAnnealing(qubo, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AnnealerTest, ConstantObjectiveHandled) {
  QuboBuilder qubo(3);
  qubo.AddOffset(5.0);
  const AnnealResult result =
      TrySolveQuboWithAnnealing(std::move(qubo).Build()).value();
  EXPECT_DOUBLE_EQ(result.best_energy, 5.0);
}

// --- Chimera ------------------------------------------------------------------

TEST(ChimeraTest, UnitCellIsK44) {
  const SimpleGraph cell = MakeChimera(1, 1, 4);
  EXPECT_EQ(cell.NumVertices(), 8);
  EXPECT_EQ(cell.NumEdges(), 16);
  for (int v = 0; v < 8; ++v) EXPECT_EQ(cell.Degree(v), 4);
}

TEST(ChimeraTest, PaperFigureFiveShape) {
  // Fig. 5: 32 qubits in 4 unit cells.
  const SimpleGraph graph = MakeChimera(2, 2, 4);
  EXPECT_EQ(graph.NumVertices(), 32);
  // 4 cells x 16 internal + 8 vertical + 8 horizontal external couplers.
  EXPECT_EQ(graph.NumEdges(), 80);
  // On the 2x2 boundary each qubit has one external coupler.
  EXPECT_EQ(graph.MaxDegree(), 5);
  EXPECT_TRUE(graph.IsConnected());
  // In a 3x3 fabric the center cell's qubits reach the full degree 6
  // ("each qubit is connected to at most six others", Sec. 3.6.2).
  EXPECT_EQ(MakeChimera(3, 3, 4).MaxDegree(), 6);
}

TEST(ChimeraTest, DWave2xScale) {
  const SimpleGraph graph = MakeChimera(12, 12, 4);
  EXPECT_EQ(graph.NumVertices(), 1152);  // the D-Wave 2X fabric
  EXPECT_EQ(graph.MaxDegree(), 6);
  EXPECT_TRUE(graph.IsConnected());
}

// --- Pegasus ------------------------------------------------------------------

TEST(PegasusTest, SmallInstanceInvariants) {
  const SimpleGraph graph = MakePegasus(3, /*fabric_only=*/false);
  EXPECT_EQ(graph.NumVertices(), 2 * 3 * 12 * 2);  // 144
  EXPECT_LE(graph.MaxDegree(), 15);
}

TEST(PegasusTest, FabricTrimKeepsConnectedDegreeBoundedGraph) {
  const SimpleGraph graph = MakePegasus(4);
  EXPECT_LE(graph.MaxDegree(), 15);
  EXPECT_TRUE(graph.IsConnected());
  // Fabric of P(m) has 24m(m-1) - 2*... qubits; for m=4: 264 before trim.
  EXPECT_GT(graph.NumVertices(), 200);
  EXPECT_LT(graph.NumVertices(), 288);
}

TEST(PegasusTest, InteriorQubitsReachDegree15) {
  const SimpleGraph graph = MakePegasus(6);
  EXPECT_EQ(graph.MaxDegree(), 15);
  int degree15 = 0;
  for (int v = 0; v < graph.NumVertices(); ++v) {
    if (graph.Degree(v) == 15) ++degree15;
  }
  // Most interior qubits have full degree.
  EXPECT_GT(degree15, graph.NumVertices() / 3);
}

TEST(PegasusTest, AdvantageScaleP16) {
  const SimpleGraph graph = MakePegasus(16);
  // D-Wave quotes "more than 5000 qubits" for the Advantage (P16 fabric).
  EXPECT_GT(graph.NumVertices(), 5000);
  EXPECT_LE(graph.NumVertices(), 5760);
  EXPECT_EQ(graph.MaxDegree(), 15);
  EXPECT_TRUE(graph.IsConnected());
}

TEST(PegasusTest, StrictlyDenserThanChimera) {
  // Pegasus' 15 couplers per qubit vs Chimera's 6 (Sec. 3.6.2).
  const SimpleGraph pegasus = MakePegasus(6);
  const SimpleGraph chimera = MakeChimera(6, 6, 4);
  const double pegasus_avg =
      2.0 * pegasus.NumEdges() / pegasus.NumVertices();
  const double chimera_avg =
      2.0 * chimera.NumEdges() / chimera.NumVertices();
  EXPECT_GT(pegasus_avg, chimera_avg + 3.0);
}

// --- Embedding validation -------------------------------------------------------

TEST(EmbeddingTest, StatsOfHandBuiltEmbedding) {
  Embedding embedding;
  embedding.chains = {{0, 1}, {2}, {3, 4, 5}};
  EXPECT_EQ(embedding.NumPhysicalQubits(), 6);
  EXPECT_EQ(embedding.MaxChainLength(), 3);
  EXPECT_DOUBLE_EQ(embedding.MeanChainLength(), 2.0);
}

TEST(EmbeddingTest, ValidateAcceptsCorrectEmbedding) {
  // Source: triangle. Target: 5-cycle -> vertex 2 needs chain {2,3,4}.
  SimpleGraph source(3);
  source.AddEdge(0, 1);
  source.AddEdge(1, 2);
  source.AddEdge(0, 2);
  SimpleGraph target(5);
  for (int i = 0; i < 5; ++i) target.AddEdge(i, (i + 1) % 5);
  Embedding embedding;
  embedding.chains = {{0}, {1}, {2, 3, 4}};
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, embedding, &error)) << error;
}

TEST(EmbeddingTest, ValidateRejectsDisconnectedChain) {
  SimpleGraph source(1);
  SimpleGraph target(3);
  target.AddEdge(0, 1);
  Embedding embedding;
  embedding.chains = {{0, 2}};
  std::string error;
  EXPECT_FALSE(ValidateEmbedding(source, target, embedding, &error));
  EXPECT_NE(error.find("not connected"), std::string::npos);
}

TEST(EmbeddingTest, ValidateRejectsOverlappingChains) {
  SimpleGraph source(2);
  SimpleGraph target(2);
  target.AddEdge(0, 1);
  Embedding embedding;
  embedding.chains = {{0}, {0}};
  std::string error;
  EXPECT_FALSE(ValidateEmbedding(source, target, embedding, &error));
}

TEST(EmbeddingTest, ValidateRejectsMissingCoupler) {
  SimpleGraph source(2);
  source.AddEdge(0, 1);
  SimpleGraph target(3);
  target.AddEdge(0, 1);  // vertex 2 isolated
  Embedding embedding;
  embedding.chains = {{0}, {2}};
  std::string error;
  EXPECT_FALSE(ValidateEmbedding(source, target, embedding, &error));
  EXPECT_NE(error.find("coupler"), std::string::npos);
}

// --- Minor embedder -------------------------------------------------------------

TEST(MinorEmbedderTest, IdentityWhenSourceIsSubgraph) {
  SimpleGraph source(3);
  source.AddEdge(0, 1);
  source.AddEdge(1, 2);
  const SimpleGraph target = MakeChimera(1, 1, 4);
  const auto embedding = TryFindMinorEmbedding(source, target);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
}

TEST(MinorEmbedderTest, TriangleIntoCycleNeedsChains) {
  SimpleGraph source(3);
  source.AddEdge(0, 1);
  source.AddEdge(1, 2);
  source.AddEdge(0, 2);
  SimpleGraph target(5);
  for (int i = 0; i < 5; ++i) target.AddEdge(i, (i + 1) % 5);
  const auto embedding = TryFindMinorEmbedding(source, target);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
  EXPECT_GT(embedding->NumPhysicalQubits(), 3);  // chains are required
}

TEST(MinorEmbedderTest, K5IntoChimeraCellImpossible) {
  // K5 needs treewidth the 8-qubit cell cannot offer: 5 chains over 8
  // vertices with every pair coupled. The embedder must give up cleanly.
  SimpleGraph source(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) source.AddEdge(i, j);
  }
  SimpleGraph small(3);
  small.AddEdge(0, 1);
  small.AddEdge(1, 2);
  EXPECT_EQ(TryFindMinorEmbedding(source, small).status().code(),
            StatusCode::kUnavailable);
}

TEST(MinorEmbedderTest, K4IntoChimeraCell) {
  SimpleGraph source(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) source.AddEdge(i, j);
  }
  const SimpleGraph target = MakeChimera(1, 1, 4);
  const auto embedding = TryFindMinorEmbedding(source, target);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
  // K4 in C(1,1,4) needs chains of length 2 (the canonical embedding).
  EXPECT_LE(embedding->NumPhysicalQubits(), 8);
}

TEST(MinorEmbedderTest, ChainsMatchPinnedOutputs) {
  // Golden chains of the embedder's fixed heuristic (congestion penalty,
  // pass budget and patience, root sampling, settle cap, chain trimming)
  // for MQO graphs into P4: the 12-variable graph of the sweep-kernel pins
  // embeds in one pass, the 32-variable one needs eight passes and long
  // chains, so every fixed constant shapes its chains.
  struct Case {
    int num_queries;
    const char* chains;
  };
  const std::vector<Case> cases = {
      {3,
       "48 177 | 154 | 66 165 166 | 45 | 144 | 147 | 36 | 39 | 160 | "
       "51 151 | 157 | 42"},
      {8,
       "49 50 95 238 239 | 81 82 83 234 235 | 38 210 229 | "
       "17 35 44 119 221 223 228 240 241 242 | 27 28 171 172 173 | "
       "213 214 215 | 18 42 60 61 157 165 | 39 40 41 48 144 166 167 | "
       "1 2 6 7 32 102 117 118 146 153 154 155 195 196 225 | "
       "99 115 182 191 | 19 20 26 53 89 121 122 237 246 247 248 | "
       "104 206 217 218 | 72 73 97 197 | 64 65 92 198 199 236 250 | "
       "25 85 86 219 220 | 79 204 205 | 90 91 226 227 | "
       "96 109 110 184 185 | 88 180 181 | 46 47 183 | 52 190 | "
       "10 11 186 187 188 222 | 70 71 | 67 68 | 14 58 59 243 244 | "
       "16 76 201 202 | 34 78 177 178 179 192 193 | "
       "12 13 168 169 170 207 | 106 107 200 | "
       "21 22 23 100 101 212 258 259 260 | 75 93 94 158 211 | "
       "15 45 66 80 98 105 123 124 125 149 150 151 152 233 251"},
  };
  for (const Case& c : cases) {
    const SimpleGraph source = PinnedMqoGraph(c.num_queries);
    EmbedOptions options;
    options.seed = 12;
    const auto embedding =
        TryFindMinorEmbedding(source, MakePegasus(4), options);
    ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
    std::ostringstream chains;
    for (std::size_t v = 0; v < embedding->chains.size(); ++v) {
      const std::vector<int>& chain = embedding->chains[v];
      for (std::size_t i = 0; i < chain.size(); ++i) {
        chains << (i > 0 ? " " : v > 0 ? " | " : "") << chain[i];
      }
    }
    EXPECT_EQ(chains.str(), c.chains) << c.num_queries << " queries";
  }
}

class MinorEmbedderParamTest : public ::testing::TestWithParam<int> {};

TEST_P(MinorEmbedderParamTest, RandomGraphsIntoChimera) {
  Rng rng(GetParam());
  const int n = 10;
  SimpleGraph source(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(0.3)) source.AddEdge(i, j);
    }
  }
  const SimpleGraph target = MakeChimera(4, 4, 4);
  EmbedOptions options;
  options.seed = GetParam() + 7;
  const auto embedding = TryFindMinorEmbedding(source, target, options);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
}

TEST_P(MinorEmbedderParamTest, RandomGraphsIntoPegasus) {
  Rng rng(GetParam() + 100);
  const int n = 16;
  SimpleGraph source(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(0.35)) source.AddEdge(i, j);
    }
  }
  const SimpleGraph target = MakePegasus(3);
  EmbedOptions options;
  options.seed = GetParam() + 11;
  const auto embedding = TryFindMinorEmbedding(source, target, options);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinorEmbedderParamTest, ::testing::Range(0, 5));

TEST(MinorEmbedderTest, IsolatedSourceVerticesGetChains) {
  SimpleGraph source(4);  // no edges at all
  const SimpleGraph target = MakeChimera(1, 1, 4);
  const auto embedding = TryFindMinorEmbedding(source, target);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  for (const auto& chain : embedding->chains) EXPECT_EQ(chain.size(), 1u);
}

// --- Embedding composite ----------------------------------------------------------

TEST(EmbeddingCompositeTest, SolvesQuboThroughChimeraTopology) {
  const QuboModel qubo = MakeRandomQubo(8, 0.5, 5);
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  EmbeddedSolveOptions options;
  options.anneal.num_reads = 30;
  options.anneal.num_sweeps = 500;
  options.anneal.seed = 3;
  options.embed.seed = 3;
  const auto result =
      TrySolveQuboOnTopology(qubo, MakeChimera(4, 4, 4), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->energy, exact.best_energy, 1e-6);
  EXPECT_GE(result->chain_break_fraction, 0.0);
  EXPECT_LE(result->chain_break_fraction, 1.0);
}

TEST(EmbeddingCompositeTest, SolvesQuboThroughPegasusTopology) {
  const QuboModel qubo = MakeRandomQubo(10, 0.4, 9);
  const BruteForceResult exact = TrySolveQuboBruteForce(qubo).value();
  EmbeddedSolveOptions options;
  options.anneal.num_reads = 30;
  options.anneal.num_sweeps = 500;
  options.anneal.seed = 4;
  options.embed.seed = 4;
  const auto result = TrySolveQuboOnTopology(qubo, MakePegasus(3), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->energy, exact.best_energy, 1e-6);
}

TEST(EmbeddingCompositeTest, ReturnsUnavailableWhenEmbeddingImpossible) {
  QuboBuilder terms(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) terms.AddQuadratic(i, j, 1.0);
  }
  const QuboModel qubo = std::move(terms).Build();
  SimpleGraph tiny(3);
  tiny.AddEdge(0, 1);
  tiny.AddEdge(1, 2);
  EXPECT_EQ(TrySolveQuboOnTopology(qubo, tiny).status().code(),
            StatusCode::kUnavailable);
}

TEST(EmbeddingCompositeTest, FixedEmbeddingSolvesLikeTheSearchedOne) {
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 4;
  gen.seed = 7;
  const QuboModel qubo = EncodeMqoAsQubo(GenerateMqoProblem(gen)).qubo;
  const SimpleGraph pegasus = MakePegasus(4);
  EmbeddedSolveOptions options;
  options.anneal = PinnedOptions(4, 100, 3);
  options.embed.seed = 3;
  const auto searched = TrySolveQuboOnTopology(qubo, pegasus, options);
  ASSERT_TRUE(searched.ok()) << searched.status().ToString();
  const auto fixed = anneal_internal::TrySolveQuboOnFixedEmbedding(
      qubo, pegasus, searched->embedding, options);
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  EXPECT_EQ(fixed->bits, searched->bits);
  EXPECT_EQ(fixed->energy, searched->energy);
  EXPECT_EQ(fixed->chain_break_fraction, searched->chain_break_fraction);
  EXPECT_EQ(fixed->embedding.chains, searched->embedding.chains);

  // A chain too few, and chains that miss a coupling, are refused.
  Embedding short_one = searched->embedding;
  short_one.chains.pop_back();
  EXPECT_EQ(anneal_internal::TrySolveQuboOnFixedEmbedding(qubo, pegasus,
                                                          short_one, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Embedding apart;
  for (int v = 0; v < qubo.NumVariables(); ++v) apart.chains.push_back({v});
  EXPECT_EQ(anneal_internal::TrySolveQuboOnFixedEmbedding(qubo, pegasus, apart,
                                                          options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace qopt
