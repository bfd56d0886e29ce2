// Asserts the determinism contract of the parallel execution layer: every
// parallel sweep (multi-seed transpile, multi-read annealing on sparse and
// dense rows, multi-seed embedding, the QAOA solver) produces results under
// an 8-thread pool that are identical — bit for bit — to the 1-thread
// serial path, because all parallel work is indexed by seed/read/start and
// all kernel arithmetic is independent of the chunk-to-thread assignment.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "anneal/chimera.h"
#include "anneal/minor_embedder.h"
#include "anneal/simulated_annealer.h"
#include "circuit/statevector.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/conversions.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"
#include "variational/variational_solver.h"

namespace qopt {
namespace {

QuboModel TestQubo(int num_queries) {
  MqoGeneratorOptions gen;
  gen.num_queries = num_queries;
  gen.plans_per_query = 4;
  gen.seed = 1;
  return EncodeMqoAsQubo(GenerateMqoProblem(gen)).qubo;
}

/// Runs `fn` once under a 1-thread pool and once under an 8-thread pool
/// and returns both results.
template <typename Fn>
auto RunAtBothThreadCounts(const Fn& fn) {
  ThreadPool serial(1);
  ThreadPool parallel(8);
  ScopedDefaultPool serial_guard(&serial);
  auto serial_result = fn();
  ScopedDefaultPool parallel_guard(&parallel);
  auto parallel_result = fn();
  return std::make_pair(std::move(serial_result), std::move(parallel_result));
}

TEST(ParallelDeterminismTest, TranspileManySeedsMatchesSerial) {
  const QuantumCircuit qaoa = BuildQaoaTemplate(QuboToIsing(TestQubo(4)));
  const CouplingMap mumbai = MakeMumbai27();
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 12; ++s) seeds.push_back(s * 101);

  const auto [serial, parallel] = RunAtBothThreadCounts([&] {
    return TryTranspileManySeeds(qaoa, mumbai, seeds).value();
  });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].depth, parallel[i].depth) << "seed slot " << i;
    EXPECT_EQ(serial[i].initial_layout, parallel[i].initial_layout);
    EXPECT_EQ(serial[i].final_layout, parallel[i].final_layout);
    EXPECT_EQ(serial[i].circuit.ToString(), parallel[i].circuit.ToString());
  }
}

TEST(ParallelDeterminismTest, MultiReadAnnealingMatchesSerial) {
  const QuboModel qubo = TestQubo(4);
  AnnealOptions options;
  options.num_reads = 16;
  options.num_sweeps = 200;
  options.seed = 7;

  const auto [serial, parallel] = RunAtBothThreadCounts([&] {
    return TrySolveQuboWithAnnealing(qubo, options).value();
  });
  EXPECT_EQ(serial.best_bits, parallel.best_bits);
  EXPECT_EQ(serial.best_energy, parallel.best_energy);
  EXPECT_EQ(serial.read_energies, parallel.read_energies);
}

TEST(ParallelDeterminismTest, AnnealingSparseAndDenseRowsMatchSerial) {
  // One QUBO on each side of the dense-row layout threshold: 0.1 stays on
  // the CSR path, 0.8 switches to contiguous coefficient rows. The layout
  // is a function of the problem alone, so results must not depend on the
  // thread count either way.
  for (const double density : {0.1, 0.8}) {
    Rng rng(11);
    QuboBuilder terms(40);
    for (int i = 0; i < 40; ++i) {
      terms.AddLinear(i, rng.NextDouble() * 2.0 - 1.0);
      for (int j = i + 1; j < 40; ++j) {
        if (rng.NextDouble() < density) {
          terms.AddQuadratic(i, j, rng.NextDouble() * 2.0 - 1.0);
        }
      }
    }
    const QuboModel qubo = std::move(terms).Build();
    AnnealOptions options;
    options.num_reads = 8;
    options.num_sweeps = 150;
    options.seed = 5;
    options.flip_groups = {{0, 1, 2}, {10, 20, 30}};

    const auto [serial, parallel] = RunAtBothThreadCounts([&] {
      return TrySolveQuboWithAnnealing(qubo, options).value();
    });
    EXPECT_EQ(serial.best_bits, parallel.best_bits) << "density " << density;
    EXPECT_EQ(serial.best_energy, parallel.best_energy);
    EXPECT_EQ(serial.read_energies, parallel.read_energies);
  }
}

TEST(ParallelDeterminismTest, QaoaSolverMatchesSerial) {
  const QuboModel qubo = TestQubo(3);
  VariationalOptions options;
  options.max_iterations = 60;
  options.shots = 256;
  options.seed = 3;

  const auto [serial, parallel] = RunAtBothThreadCounts([&] {
    return TrySolveQuboWithQaoa(qubo, options).value();
  });
  EXPECT_EQ(serial.best_bits, parallel.best_bits);
  EXPECT_EQ(serial.best_energy, parallel.best_energy);
  EXPECT_EQ(serial.expectation, parallel.expectation);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
}

TEST(ParallelDeterminismTest, MinorEmbeddingManySeedsMatchesSerial) {
  // Small source graph into a Chimera cell grid: fast, and exercises both
  // successful and per-seed-varying outcomes.
  SimpleGraph source(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) source.AddEdge(i, j);
  }
  const SimpleGraph target = MakeChimera(3, 3, 4);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 8; ++s) seeds.push_back(100 + s * 7919);
  EmbedOptions base;
  base.tries = 1;

  const auto [serial, parallel] = RunAtBothThreadCounts([&] {
    return FindMinorEmbeddingManySeeds(source, target, seeds, base);
  });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].has_value(), parallel[i].has_value())
        << "seed slot " << i;
    if (serial[i].has_value()) {
      EXPECT_EQ(serial[i]->chains, parallel[i]->chains);
    }
  }
}

TEST(ParallelDeterminismTest, StatevectorKernelsMatchAcrossThreadCounts) {
  // 15 qubits crosses the parallelization threshold; every gate kind the
  // QAOA/VQE ansätze emit appears, including a fusable diagonal run.
  QuantumCircuit circuit(15);
  for (int q = 0; q < 15; ++q) circuit.H(q);
  for (int q = 0; q + 1 < 15; ++q) circuit.Rzz(q, q + 1, 0.3 + 0.01 * q);
  for (int q = 0; q < 15; ++q) circuit.Rz(q, 0.2 + 0.01 * q);
  circuit.Cz(0, 7);
  for (int q = 0; q < 15; ++q) circuit.Rx(q, 0.5);
  circuit.Cx(3, 11);
  circuit.Swap(2, 13);

  const auto [serial, parallel] = RunAtBothThreadCounts([&] {
    return SimulateCircuit(circuit).Amplitudes();
  });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].real(), parallel[i].real()) << "amplitude " << i;
    EXPECT_EQ(serial[i].imag(), parallel[i].imag()) << "amplitude " << i;
  }
}

TEST(StatevectorFusionTest, FusedDiagonalRunMatchesGateByGate) {
  // ApplyCircuit fuses the diagonal run; applying the gates one at a time
  // never fuses. Both must produce the same state up to rounding.
  QuantumCircuit circuit(6);
  for (int q = 0; q < 6; ++q) circuit.H(q);
  for (int q = 0; q < 6; ++q) circuit.Rz(q, 0.1 * (q + 1));
  for (int q = 0; q + 1 < 6; ++q) circuit.Rzz(q, q + 1, 0.2 * (q + 1));
  circuit.Cz(0, 5);
  circuit.Z(3);
  circuit.Rzz(1, 4, -0.7);

  const Statevector fused = SimulateCircuit(circuit);
  Statevector reference(6);
  for (const Gate& gate : circuit.Gates()) reference.ApplyGate(gate);

  ASSERT_EQ(fused.Amplitudes().size(), reference.Amplitudes().size());
  for (std::size_t i = 0; i < fused.Amplitudes().size(); ++i) {
    EXPECT_NEAR(fused.Amplitudes()[i].real(),
                reference.Amplitudes()[i].real(), 1e-12);
    EXPECT_NEAR(fused.Amplitudes()[i].imag(),
                reference.Amplitudes()[i].imag(), 1e-12);
  }
  EXPECT_NEAR(fused.NormSquared(), 1.0, 1e-12);
}

TEST(StatevectorFusionTest, ResetRestoresZeroStateWithoutRealloc) {
  QuantumCircuit circuit(5);
  for (int q = 0; q < 5; ++q) circuit.H(q);
  Statevector state(5);
  state.ApplyCircuit(circuit);
  state.Reset();
  EXPECT_EQ(state.Amplitudes()[0], std::complex<double>(1.0, 0.0));
  for (std::size_t i = 1; i < state.Amplitudes().size(); ++i) {
    EXPECT_EQ(state.Amplitudes()[i], std::complex<double>(0.0, 0.0));
  }
}

TEST(StatevectorFusionTest, SampleFromCdfMatchesLinearScanSample) {
  QuantumCircuit circuit(6);
  for (int q = 0; q < 6; ++q) circuit.H(q);
  for (int q = 0; q + 1 < 6; ++q) circuit.Rzz(q, q + 1, 0.8);
  for (int q = 0; q < 6; ++q) circuit.Rx(q, 0.4);
  const Statevector state = SimulateCircuit(circuit);
  const std::vector<double> cdf = state.CumulativeProbabilities();
  // Identical RNG streams must yield identical samples: both paths draw
  // exactly one NextDouble per shot and pick the same basis state.
  Rng linear_rng(123);
  Rng cdf_rng(123);
  for (int shot = 0; shot < 500; ++shot) {
    EXPECT_EQ(state.Sample(&linear_rng), state.SampleFromCdf(cdf, &cdf_rng));
  }
}

}  // namespace
}  // namespace qopt
