// Pins the single-qubit statevector kernel to plain std::complex
// arithmetic: SimulateCircuit's amplitudes must equal, bit for bit, a naive
// std::complex loop written here. The widths reach every stride branch of
// the kernel (stride 1, stride 2, runs of `stride` pairs, runs cut at a
// parallel block boundary) and cross the parallelization threshold, and
// each runs under pools of 1, 2 and 8 threads, so neither the compiler's
// vectorization nor the block split may change a single rounding.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/statevector.h"
#include "common/thread_pool.h"

namespace qopt {
namespace {

using Complex = std::complex<double>;

/// Every single-qubit gate kind: H, RX, RY, SX, Z and RZ on every qubit, Y
/// and X on the two end qubits. Each Z and RZ sits between non-diagonal
/// gates, and a diagonal gate with no diagonal neighbour is not fused, so
/// it goes through the single-qubit kernel too.
QuantumCircuit SingleQubitCircuit(int n) {
  QuantumCircuit circuit(n);
  for (int q = 0; q < n; ++q) circuit.H(q);
  for (int q = 0; q < n; ++q) {
    circuit.Rx(q, 0.5 + 0.02 * q);
    circuit.Rz(q, 0.3 + 0.01 * q);
  }
  for (int q = 0; q < n; ++q) circuit.Ry(q, 0.25 + 0.03 * q);
  for (int q = 0; q < n; ++q) {
    circuit.Sx(q);
    circuit.Z(n - 1 - q);
  }
  circuit.Y(0);
  circuit.X(n - 1);
  for (int q = n - 1; q >= 0; --q) circuit.Rx(q, 1.1 - 0.05 * q);
  return circuit;
}

/// The matrix Statevector::ApplyGate builds for a single-qubit gate,
/// written with the same expressions so that every entry matches.
std::array<Complex, 4> MatrixOf(const Gate& gate) {
  const Complex kI{0.0, 1.0};
  const double half = gate.param / 2.0;
  switch (gate.kind) {
    case GateKind::kH: {
      const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
      return {inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2};
    }
    case GateKind::kX:
      return {0.0, 1.0, 1.0, 0.0};
    case GateKind::kY:
      return {0.0, -kI, kI, 0.0};
    case GateKind::kZ:
      return {1.0, 0.0, 0.0, -1.0};
    case GateKind::kSx: {
      const Complex a = (1.0 + kI) / 2.0;
      const Complex b = (1.0 - kI) / 2.0;
      return {a, b, b, a};
    }
    case GateKind::kRx: {
      const Complex c = std::cos(half);
      const Complex s = -kI * std::sin(half);
      return {c, s, s, c};
    }
    case GateKind::kRy: {
      const double c = std::cos(half);
      const double s = std::sin(half);
      return {c, -s, s, c};
    }
    case GateKind::kRz:
      return {std::exp(-kI * half), 0.0, 0.0, std::exp(kI * half)};
    default:
      ADD_FAILURE() << "not a single-qubit gate";
      return {};
  }
}

/// Runs `circuit` on |0..0> one gate at a time with a full scan over the
/// basis states.
std::vector<Complex> ReferenceAmplitudes(const QuantumCircuit& circuit) {
  std::vector<Complex> amp(std::size_t{1} << circuit.NumQubits(), 0.0);
  amp[0] = 1.0;
  for (const Gate& gate : circuit.Gates()) {
    const std::array<Complex, 4> m = MatrixOf(gate);
    const std::size_t bit = std::size_t{1} << gate.qubit0;
    for (std::size_t i0 = 0; i0 < amp.size(); ++i0) {
      if ((i0 & bit) != 0) continue;
      const Complex a0 = amp[i0];
      const Complex a1 = amp[i0 | bit];
      amp[i0] = m[0] * a0 + m[1] * a1;
      amp[i0 | bit] = m[2] * a0 + m[3] * a1;
    }
  }
  return amp;
}

TEST(StatevectorKernelTest, AmplitudesMatchComplexReferenceBitForBit) {
  // 1 and 2 qubits are the smallest states of the stride-1 and stride-2
  // loops; 9 runs every stride serially; 15 crosses the parallelization
  // threshold, and its high strides are longer than one parallel block.
  for (const int n : {1, 2, 3, 9, 15}) {
    const QuantumCircuit circuit = SingleQubitCircuit(n);
    const std::vector<Complex> reference = ReferenceAmplitudes(circuit);
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      ScopedDefaultPool pool_guard(&pool);
      SCOPED_TRACE("qubits=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      const std::vector<Complex> amp = SimulateCircuit(circuit).Amplitudes();
      ASSERT_EQ(amp.size(), reference.size());
      int mismatches = 0;
      for (std::size_t i = 0; i < amp.size() && mismatches < 5; ++i) {
        const bool same =
            std::bit_cast<std::uint64_t>(amp[i].real()) ==
                std::bit_cast<std::uint64_t>(reference[i].real()) &&
            std::bit_cast<std::uint64_t>(amp[i].imag()) ==
                std::bit_cast<std::uint64_t>(reference[i].imag());
        if (!same) {
          ++mismatches;
          ADD_FAILURE() << "amplitude " << i << ": " << amp[i]
                        << " != reference " << reference[i];
        }
      }
    }
  }
}

}  // namespace
}  // namespace qopt
