#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.h"
#include "common/deadline.h"
#include "common/random.h"
#include "common/status.h"
#include "qubo/ising_model.h"

namespace qopt {

/// Largest register the statevector simulator (and its energy table)
/// holds: 2^26 amplitudes are a gigabyte of complex doubles.
inline constexpr int kMaxStatevectorQubits = 26;

/// Dense statevector simulator (the stand-in for the remote IBM-Q qasm
/// simulator). Basis states are indexed little-endian: bit q of the index
/// is the value of qubit q. Practical up to ~20 qubits.
///
/// Hot-path design: two-qubit gates iterate only over the affected
/// quarter/half of the amplitudes (stride-based index expansion instead of
/// a branchy full-2^n scan); runs of diagonal gates (Z, RZ, CZ, RZZ — the
/// bulk of a QAOA cost layer) are fused into a single per-basis-state phase
/// pass whose angles come from a Gray-code walk; and elementwise passes are
/// parallelized over amplitude blocks on ThreadPool::Default() once the
/// state is large enough. All parallel passes write disjoint slots with
/// thread-count-independent arithmetic, so results are bit-identical for
/// any QQO_THREADS setting.
///
/// The single-qubit gate pass (every H/X/Y/RX/RY layer — the bulk of QAOA
/// mixer and VQE ansatz work) is one plain-double kernel with simple loops
/// the compiler vectorizes; x86 builds carry an AVX2 clone picked by
/// CPUID. Contraction into FMA is off, so every build and every clone
/// rounds alike and amplitudes equal std::complex arithmetic bit for bit —
/// see DESIGN.md "Performance".
class Statevector {
 public:
  /// Initializes |0...0>; 0 <= num_qubits <= kMaxStatevectorQubits.
  explicit Statevector(int num_qubits);

  int NumQubits() const { return num_qubits_; }
  const std::vector<std::complex<double>>& Amplitudes() const {
    return amplitudes_;
  }

  /// Resets to |0...0> without reallocating — the reuse path for
  /// variational outer loops that simulate hundreds of circuits of the
  /// same width.
  void Reset();

  /// Applies one gate in place.
  void ApplyGate(const Gate& gate);

  /// Applies every gate of the circuit (must match NumQubits()), fusing
  /// runs of consecutive diagonal gates into single phase passes.
  void ApplyCircuit(const QuantumCircuit& circuit);

  /// Deadline-aware flavour: the deadline is checked before every gate (or
  /// fused diagonal run). On expiry or cancellation the remaining gates
  /// are NOT applied and kDeadlineExceeded/kCancelled is returned; the
  /// state is then mid-circuit garbage and the caller must Reset() before
  /// reuse. Runs that return OK applied exactly the gate sequence of the
  /// plain overload.
  Status ApplyCircuit(const QuantumCircuit& circuit, const Deadline& deadline);

  /// Measurement probabilities |amplitude|^2 per basis state.
  std::vector<double> Probabilities() const;

  /// Running sums of the probabilities in basis order: cdf[i] =
  /// sum_{j <= i} |amplitude_j|^2. Computed once, it turns each
  /// subsequent Sample draw into a binary search.
  std::vector<double> CumulativeProbabilities() const;

  /// Sum of |amplitude|^2 (should stay 1 up to rounding; exposed for
  /// unitarity tests).
  double NormSquared() const;

  /// Expectation value <psi| H |psi> of a diagonal-in-Z Ising Hamiltonian
  /// (the quantity VQE/QAOA minimize, Eq. 15/21).
  double IsingExpectation(const IsingModel& ising) const;

  /// Same expectation from a precomputed IsingEnergyTable — the reuse path
  /// that avoids rebuilding the O(2^n) table on every objective call.
  double EnergyExpectation(const std::vector<double>& energies) const;

  /// Draws one computational-basis sample (linear scan; one NextDouble).
  std::vector<std::uint8_t> Sample(Rng* rng) const;

  /// Draws one sample by binary search over a CumulativeProbabilities()
  /// vector. Consumes the same single NextDouble per shot and selects the
  /// same basis state as Sample(), in O(n) instead of O(2^n).
  std::vector<std::uint8_t> SampleFromCdf(const std::vector<double>& cdf,
                                          Rng* rng) const;

  /// Basis state with the largest probability, as a bit vector.
  std::vector<std::uint8_t> MostProbableBits() const;

 private:
  void ApplySingleQubit(int q, const std::complex<double> m[2][2]);
  /// Applies gates [begin, end) of `gates`, all diagonal in the
  /// computational basis, as one fused phase multiplication.
  void ApplyFusedDiagonal(const std::vector<Gate>& gates, std::size_t begin,
                          std::size_t end);

  int num_qubits_;
  std::vector<std::complex<double>> amplitudes_;
  std::vector<double> phase_scratch_;  ///< Reused by ApplyFusedDiagonal.
};

/// True for gates that are diagonal in the computational basis and hence
/// fusable into a single phase pass (Z, RZ, CZ, RZZ).
bool IsDiagonalGate(GateKind kind);

/// Energy of every computational basis state under `ising`, indexed by the
/// little-endian basis index. Size 2^NumSpins(); O(2^n * couplings) via a
/// Gray-code walk. Shared by expectation evaluation and tests. At most
/// kMaxStatevectorQubits spins.
std::vector<double> IsingEnergyTable(const IsingModel& ising);

/// Runs `circuit` on |0..0> and returns the final state.
Statevector SimulateCircuit(const QuantumCircuit& circuit);

}  // namespace qopt
