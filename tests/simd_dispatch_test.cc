// Asserts the SIMD dispatch layer's determinism contract: statevector
// amplitudes and annealing solutions are byte-identical across the scalar
// and vector (AVX2/NEON) kernels and across QQO_THREADS 1/2/8 — the
// vector kernels perform the same primitive FP operations in the same
// order as the scalar path and never contract into FMA, so SIMD level and
// thread count are pure performance knobs. Also covers the QQO_SIMD env
// parsing and override plumbing.

#include <gtest/gtest.h>

#include <complex>
#include <utility>
#include <vector>

#include "anneal/simulated_annealer.h"
#include "circuit/statevector.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "qubo/qubo_model.h"

namespace qopt {
namespace {

/// A circuit whose single-qubit layers hit every matrix shape the
/// ApplySingleQubit kernels see (real, imaginary, and mixed entries), at a
/// width where gates on qubit 0 exercise the stride==1 in-register path
/// and high qubits exercise the strided two-pairs-per-vector path.
QuantumCircuit AllKindsCircuit(int n) {
  QuantumCircuit circuit(n);
  for (int q = 0; q < n; ++q) circuit.H(q);
  for (int q = 0; q + 1 < n; ++q) circuit.Rzz(q, q + 1, 0.3 + 0.01 * q);
  for (int q = 0; q < n; ++q) circuit.Rx(q, 0.5 + 0.02 * q);
  for (int q = 0; q < n; ++q) circuit.Ry(q, 0.25 + 0.02 * q);
  circuit.Y(0);
  circuit.Sx(1);
  circuit.X(n - 1);
  circuit.Cx(0, n - 1);
  circuit.Swap(1, n - 2);
  return circuit;
}

QuboModel RandomQubo(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  QuboModel qubo(n);
  for (int i = 0; i < n; ++i) {
    qubo.AddLinear(i, rng.NextDouble() * 2.0 - 1.0);
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextDouble() < density) {
        qubo.AddQuadratic(i, j, rng.NextDouble() * 2.0 - 1.0);
      }
    }
  }
  return qubo;
}

/// Runs `fn` under every (SIMD level, thread count) combination and
/// checks each result is EQ-identical to the scalar single-thread one.
template <typename Fn, typename Eq>
void ExpectInvariantAcrossSimdAndThreads(const Fn& fn, const Eq& expect_eq) {
  const SimdLevel best = BestSupportedSimdLevel();
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (best != SimdLevel::kScalar) levels.push_back(best);

  ScopedSimdLevel scalar_guard(SimdLevel::kScalar);
  ThreadPool one(1);
  ScopedDefaultPool one_guard(&one);
  const auto reference = fn();

  for (const SimdLevel level : levels) {
    ScopedSimdLevel level_guard(level);
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      ScopedDefaultPool pool_guard(&pool);
      SCOPED_TRACE(std::string("simd=") + SimdLevelName(level) +
                   " threads=" + std::to_string(threads));
      expect_eq(reference, fn());
    }
  }
}

TEST(SimdDispatchTest, StatevectorAmplitudesBitIdentical) {
  // 15 qubits also crosses the ForEachBlock parallelization threshold, so
  // the SIMD kernels run under genuine multi-thread block decomposition.
  const QuantumCircuit circuit = AllKindsCircuit(15);
  ExpectInvariantAcrossSimdAndThreads(
      [&] { return SimulateCircuit(circuit).Amplitudes(); },
      [](const std::vector<std::complex<double>>& a,
         const std::vector<std::complex<double>>& b) {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].real(), b[i].real()) << "amplitude " << i;
          EXPECT_EQ(a[i].imag(), b[i].imag()) << "amplitude " << i;
        }
      });
}

TEST(SimdDispatchTest, AnnealingSolutionsIdenticalSparseAndDense) {
  // One QUBO on each side of the dense-row layout threshold: 0.1 stays on
  // the CSR path, 0.8 switches to contiguous coefficient rows. The layout
  // is a function of the problem alone, so results must not depend on
  // SIMD level or thread count either way.
  for (const double density : {0.1, 0.8}) {
    const QuboModel qubo = RandomQubo(40, density, 11);
    AnnealOptions options;
    options.num_reads = 8;
    options.num_sweeps = 150;
    options.seed = 5;
    options.flip_groups = {{0, 1, 2}, {10, 20, 30}};
    ExpectInvariantAcrossSimdAndThreads(
        [&] { return TrySolveQuboWithAnnealing(qubo, options).value(); },
        [&](const AnnealResult& a, const AnnealResult& b) {
          EXPECT_EQ(a.best_bits, b.best_bits) << "density " << density;
          EXPECT_EQ(a.best_energy, b.best_energy);
          EXPECT_EQ(a.read_energies, b.read_energies);
        });
  }
}

TEST(SimdDispatchTest, ParseSimdLevelContract) {
  // "auto"/"" resolve to the best level this machine supports; explicit
  // names resolve to themselves or fail cleanly when unsupported.
  EXPECT_EQ(ParseSimdLevel("QQO_SIMD", "").value(), BestSupportedSimdLevel());
  EXPECT_EQ(ParseSimdLevel("QQO_SIMD", "auto").value(),
            BestSupportedSimdLevel());
  EXPECT_EQ(ParseSimdLevel("QQO_SIMD", "scalar").value(), SimdLevel::kScalar);
  EXPECT_EQ(ParseSimdLevel("QQO_SIMD", "0").value(), SimdLevel::kScalar);
  EXPECT_FALSE(ParseSimdLevel("QQO_SIMD", "warp-drive").ok());
#if QQO_SIMD_X86
  if (CpuSupportsAvx2()) {
    EXPECT_EQ(ParseSimdLevel("QQO_SIMD", "avx2").value(), SimdLevel::kAvx2);
  } else {
    EXPECT_FALSE(ParseSimdLevel("QQO_SIMD", "avx2").ok());
  }
#else
  EXPECT_FALSE(ParseSimdLevel("QQO_SIMD", "avx2").ok());
#endif
}

TEST(SimdDispatchTest, ScopedOverrideRestoresPreviousLevel) {
  const SimdLevel ambient = ActiveSimdLevel();
  {
    ScopedSimdLevel outer(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    {
      ScopedSimdLevel inner(BestSupportedSimdLevel());
      EXPECT_EQ(ActiveSimdLevel(), BestSupportedSimdLevel());
    }
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_EQ(ActiveSimdLevel(), ambient);
}

}  // namespace
}  // namespace qopt
