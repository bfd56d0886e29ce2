#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <sstream>

#include "circuit/statevector.h"
#include "common/random.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/conversions.h"
#include "transpile/basis_decomposer.h"
#include "transpile/coupling_map.h"
#include "transpile/ibm_topologies.h"
#include "transpile/layout.h"
#include "transpile/swap_router.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"

namespace qopt {
namespace {

constexpr double kPi = std::numbers::pi;

/// Fidelity |<a|b>|^2 between two statevectors — 1 iff equal up to a
/// global phase.
double Fidelity(const std::vector<std::complex<double>>& a,
                const std::vector<std::complex<double>>& b) {
  std::complex<double> inner = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) inner += std::conj(a[i]) * b[i];
  return std::norm(inner);
}

// --- Coupling maps ---------------------------------------------------------

TEST(CouplingMapTest, FullyConnectedProperties) {
  const CouplingMap full = MakeFullyConnected(5);
  EXPECT_TRUE(full.IsFullyConnected());
  EXPECT_EQ(full.Graph().NumEdges(), 10);
  EXPECT_EQ(full.Distance(0, 4), 1);
}

TEST(CouplingMapTest, LinearDistances) {
  const CouplingMap line = MakeLinear(6);
  EXPECT_FALSE(line.IsFullyConnected());
  EXPECT_EQ(line.Distance(0, 5), 5);
  EXPECT_EQ(line.Distance(2, 2), 0);
}

TEST(CouplingMapTest, GridStructure) {
  const CouplingMap grid = MakeGrid(3, 4);
  EXPECT_EQ(grid.NumQubits(), 12);
  // Edges: 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8 = 17.
  EXPECT_EQ(grid.Graph().NumEdges(), 17);
  EXPECT_EQ(grid.Distance(0, 11), 5);
}

TEST(IbmTopologiesTest, MumbaiHasFalconShape) {
  const CouplingMap mumbai = MakeMumbai27();
  EXPECT_EQ(mumbai.NumQubits(), 27);
  EXPECT_EQ(mumbai.Graph().NumEdges(), 28);
  EXPECT_TRUE(mumbai.IsConnected());
  EXPECT_LE(mumbai.Graph().MaxDegree(), 3);  // heavy-hex property
}

TEST(IbmTopologiesTest, BrooklynHasHummingbirdShape) {
  const CouplingMap brooklyn = MakeBrooklyn65();
  EXPECT_EQ(brooklyn.NumQubits(), 65);
  EXPECT_EQ(brooklyn.Graph().NumEdges(), 72);
  EXPECT_TRUE(brooklyn.IsConnected());
  EXPECT_LE(brooklyn.Graph().MaxDegree(), 3);
  // Every qubit participates in the fabric.
  for (int q = 0; q < 65; ++q) EXPECT_GE(brooklyn.Graph().Degree(q), 1);
}

// --- Basis decomposition ----------------------------------------------------

struct GateCase {
  const char* name;
  void (*emit)(QuantumCircuit*, Rng*);
};

void EmitH(QuantumCircuit* c, Rng*) { c->H(0); }
void EmitX(QuantumCircuit* c, Rng*) { c->X(0); }
void EmitY(QuantumCircuit* c, Rng*) { c->Y(0); }
void EmitZ(QuantumCircuit* c, Rng*) { c->Z(0); }
void EmitSx(QuantumCircuit* c, Rng*) { c->Sx(0); }
void EmitRx(QuantumCircuit* c, Rng* r) { c->Rx(0, r->NextDouble(-kPi, kPi)); }
void EmitRy(QuantumCircuit* c, Rng* r) { c->Ry(0, r->NextDouble(-kPi, kPi)); }
void EmitRz(QuantumCircuit* c, Rng* r) { c->Rz(0, r->NextDouble(-kPi, kPi)); }
void EmitCx(QuantumCircuit* c, Rng*) { c->Cx(0, 1); }
void EmitCz(QuantumCircuit* c, Rng*) { c->Cz(0, 1); }
void EmitRzz(QuantumCircuit* c, Rng* r) { c->Rzz(0, 1, r->NextDouble(-kPi, kPi)); }
void EmitSwap(QuantumCircuit* c, Rng*) { c->Swap(0, 1); }

class BasisDecompositionTest : public ::testing::TestWithParam<GateCase> {};

TEST_P(BasisDecompositionTest, GateEquivalentUpToGlobalPhase) {
  Rng rng(2024);
  // A non-trivial two-qubit input state so phases matter.
  QuantumCircuit prep(2);
  prep.Ry(0, 0.7);
  prep.Ry(1, 1.9);
  prep.Cx(0, 1);
  prep.Rz(0, 0.3);

  QuantumCircuit original = prep;
  GetParam().emit(&original, &rng);
  Rng rng2(2024);
  QuantumCircuit gate_only(2);
  GetParam().emit(&gate_only, &rng2);
  QuantumCircuit decomposed = prep;
  decomposed.Extend(DecomposeToBasis(gate_only));

  const double fidelity = Fidelity(SimulateCircuit(original).Amplitudes(),
                                   SimulateCircuit(decomposed).Amplitudes());
  EXPECT_NEAR(fidelity, 1.0, 1e-9) << GetParam().name;

  // Decomposition uses only basis gates.
  const QuantumCircuit basis_circuit = DecomposeToBasis(gate_only);
  for (const Gate& g : basis_circuit.Gates()) {
    const bool basis = g.kind == GateKind::kRz || g.kind == GateKind::kSx ||
                       g.kind == GateKind::kX || g.kind == GateKind::kCx;
    EXPECT_TRUE(basis) << GateKindName(g.kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, BasisDecompositionTest,
    ::testing::Values(GateCase{"h", EmitH}, GateCase{"x", EmitX},
                      GateCase{"y", EmitY}, GateCase{"z", EmitZ},
                      GateCase{"sx", EmitSx}, GateCase{"rx", EmitRx},
                      GateCase{"ry", EmitRy}, GateCase{"rz", EmitRz},
                      GateCase{"cx", EmitCx}, GateCase{"cz", EmitCz},
                      GateCase{"rzz", EmitRzz}, GateCase{"swap", EmitSwap}),
    [](const ::testing::TestParamInfo<GateCase>& param_info) {
      return param_info.param.name;
    });

TEST(MergeAdjacentRzTest, MergesRunsAndDropsZeros) {
  QuantumCircuit c(2);
  c.Rz(0, 0.5);
  c.Rz(0, 0.25);
  c.Rz(1, kPi);
  c.Rz(1, -kPi);
  c.H(0);
  const QuantumCircuit merged = MergeAdjacentRz(c);
  const auto counts = merged.CountOps();
  EXPECT_EQ(counts.at("rz"), 1);
  EXPECT_EQ(counts.at("h"), 1);
}

TEST(MergeAdjacentRzTest, PreservesSemantics) {
  Rng rng(5);
  QuantumCircuit c(3);
  for (int i = 0; i < 30; ++i) {
    const int q = rng.NextInt(0, 2);
    if (rng.NextBool(0.6)) {
      c.Rz(q, rng.NextDouble(-kPi, kPi));
    } else if (rng.NextBool()) {
      c.Sx(q);
    } else {
      c.Cx(q, (q + 1) % 3);
    }
  }
  const double fidelity =
      Fidelity(SimulateCircuit(c).Amplitudes(),
               SimulateCircuit(MergeAdjacentRz(c)).Amplitudes());
  EXPECT_NEAR(fidelity, 1.0, 1e-9);
}

// --- Layout -----------------------------------------------------------------

TEST(LayoutTest, TrivialLayoutIsIdentity) {
  EXPECT_EQ(TrivialLayout(4), (std::vector<int>{0, 1, 2, 3}));
}

TEST(LayoutTest, DenseLayoutIsInjectiveAndInRange) {
  const CouplingMap mumbai = MakeMumbai27();
  const std::vector<int> layout = DenseLayout(mumbai, 10);
  ASSERT_EQ(layout.size(), 10u);
  std::vector<bool> used(27, false);
  for (int p : layout) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 27);
    EXPECT_FALSE(used[static_cast<std::size_t>(p)]);
    used[static_cast<std::size_t>(p)] = true;
  }
}

TEST(LayoutTest, DenseLayoutSelectsConnectedRegion) {
  const CouplingMap brooklyn = MakeBrooklyn65();
  const std::vector<int> layout = DenseLayout(brooklyn, 20);
  std::vector<bool> removed(65, true);
  for (int p : layout) removed[static_cast<std::size_t>(p)] = false;
  EXPECT_TRUE(brooklyn.Graph().InducedSubgraph(removed).IsConnected());
}

// --- Routing ----------------------------------------------------------------

QuantumCircuit MakeRandomLogicalCircuit(int n, int gates, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit c(n);
  for (int i = 0; i < gates; ++i) {
    if (rng.NextBool(0.4)) {
      c.Ry(rng.NextInt(0, n - 1), rng.NextDouble(-kPi, kPi));
    } else {
      int a = rng.NextInt(0, n - 1);
      int b = rng.NextInt(0, n - 1);
      while (b == a) b = rng.NextInt(0, n - 1);
      c.Cx(a, b);
    }
  }
  return c;
}

TEST(SwapRouterTest, RoutedGatesRespectCoupling) {
  const CouplingMap line = MakeLinear(6);
  const QuantumCircuit logical = MakeRandomLogicalCircuit(6, 40, 7);
  Rng rng(1);
  const RoutedCircuit routed =
      TryRouteCircuit(logical, line, TrivialLayout(6), &rng).value();
  for (const Gate& g : routed.circuit.Gates()) {
    if (g.NumQubits() == 2) {
      EXPECT_TRUE(line.AreCoupled(g.qubit0, g.qubit1));
    }
  }
}

TEST(SwapRouterTest, NoSwapsOnFullConnectivity) {
  const CouplingMap full = MakeFullyConnected(6);
  const QuantumCircuit logical = MakeRandomLogicalCircuit(6, 40, 11);
  Rng rng(1);
  const RoutedCircuit routed =
      TryRouteCircuit(logical, full, TrivialLayout(6), &rng).value();
  EXPECT_EQ(routed.circuit.CountOps().count("swap"), 0u);
  EXPECT_EQ(routed.circuit.NumGates(), logical.NumGates());
}

/// Semantic check: routing only permutes qubits, so simulating the routed
/// circuit and un-permuting via final_layout must reproduce the original
/// state (restricted to the first NumQubits logical qubits).
TEST(SwapRouterTest, RoutingPreservesSemantics) {
  const int n = 5;
  const CouplingMap line = MakeLinear(n);
  const QuantumCircuit logical = MakeRandomLogicalCircuit(n, 25, 13);
  Rng rng(99);
  const RoutedCircuit routed =
      TryRouteCircuit(logical, line, TrivialLayout(n), &rng).value();

  const auto expected = SimulateCircuit(logical).Amplitudes();
  const auto physical = SimulateCircuit(routed.circuit).Amplitudes();
  // Map physical basis index -> logical basis index via final_layout.
  std::vector<std::complex<double>> actual(expected.size(), 0.0);
  for (std::size_t p_index = 0; p_index < physical.size(); ++p_index) {
    std::size_t l_index = 0;
    for (int l = 0; l < n; ++l) {
      const int p = routed.final_layout[static_cast<std::size_t>(l)];
      if (p_index & (std::size_t{1} << p)) l_index |= std::size_t{1} << l;
    }
    actual[l_index] += physical[p_index];
  }
  EXPECT_NEAR(Fidelity(expected, actual), 1.0, 1e-9);
}

TEST(SwapRouterTest, DifferentSeedsCanDiffer) {
  const CouplingMap mumbai = MakeMumbai27();
  const QuantumCircuit logical = MakeRandomLogicalCircuit(12, 60, 17);
  std::vector<int> depths;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    depths.push_back(
        TryRouteCircuit(logical, mumbai, DenseLayout(mumbai, 12), &rng).value()
            .circuit.Depth());
  }
  // Stochastic routing should not be perfectly constant across 8 seeds.
  bool any_different = false;
  for (int d : depths) any_different |= d != depths[0];
  EXPECT_TRUE(any_different);
}

// --- Full pipeline ----------------------------------------------------------

TEST(TranspilerTest, FullMapKeepsDepthAndIsDeterministic) {
  const QuantumCircuit logical = MakeRandomLogicalCircuit(6, 30, 19);
  const CouplingMap full = MakeFullyConnected(6);
  TranspileOptions options_a;
  options_a.seed = 1;
  TranspileOptions options_b;
  options_b.seed = 2;
  const TranspileResult a = TryTranspile(logical, full, options_a).value();
  const TranspileResult b = TryTranspile(logical, full, options_b).value();
  EXPECT_EQ(a.depth, b.depth);
}

TEST(TranspilerTest, DeviceDepthAtLeastIdealDepth) {
  const QuantumCircuit logical = MakeRandomLogicalCircuit(10, 60, 23);
  const CouplingMap full = MakeFullyConnected(10);
  const CouplingMap mumbai = MakeMumbai27();
  const int ideal = TryTranspile(logical, full).value().depth;
  const Summary device = TranspiledDepthStats(logical, mumbai, 5);
  EXPECT_GE(device.min, ideal);
}

TEST(TranspilerTest, ResultUsesBasisGatesOnly) {
  const QuantumCircuit logical = MakeRandomLogicalCircuit(8, 30, 29);
  const CouplingMap mumbai = MakeMumbai27();
  const TranspileResult result = TryTranspile(logical, mumbai).value();
  for (const Gate& g : result.circuit.Gates()) {
    const bool basis = g.kind == GateKind::kRz || g.kind == GateKind::kSx ||
                       g.kind == GateKind::kX || g.kind == GateKind::kCx;
    EXPECT_TRUE(basis);
    if (g.NumQubits() == 2) {
      EXPECT_TRUE(mumbai.AreCoupled(g.qubit0, g.qubit1));
    }
  }
}

TEST(TranspilerTest, QaoaOnMumbaiMatchesPinnedOutputs) {
  // Golden depth and gate counts of the fixed pipeline (dense layout,
  // routing, basis rewrite, RZ merging) for a p = 1 QAOA circuit of a
  // 12-variable MQO problem. Any change to a pass or to its order shows.
  MqoGeneratorOptions gen;
  gen.num_queries = 3;
  gen.plans_per_query = 4;
  gen.seed = 5;
  const QuantumCircuit qaoa = BuildQaoaCircuit(
      QuboToIsing(EncodeMqoAsQubo(GenerateMqoProblem(gen)).qubo), {0.4},
      {0.7});
  TranspileOptions options;
  options.seed = 4;
  const TranspileResult result =
      TryTranspile(qaoa, MakeMumbai27(), options).value();
  std::ostringstream ops;
  ops << "depth " << result.depth;
  for (const auto& [name, count] : result.circuit.CountOps()) {
    ops << ' ' << name << ' ' << count;
  }
  EXPECT_EQ(ops.str(), "depth 71 cx 128 rz 88 sx 36");
}

TEST(TranspilerTest, DepthStatsSampleCount) {
  const QuantumCircuit logical = MakeRandomLogicalCircuit(6, 20, 31);
  const CouplingMap mumbai = MakeMumbai27();
  EXPECT_EQ(TranspiledDepthStats(logical, mumbai, 7).count, 7u);
  const CouplingMap full = MakeFullyConnected(6);
  EXPECT_EQ(TranspiledDepthStats(logical, full, 7).count, 1u);
}

}  // namespace
}  // namespace qopt
