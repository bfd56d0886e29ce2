#pragma once

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.h"

namespace qopt {

/// Entanglement blocks of the paper's VQE ansatz (RealAmplitudes, 3 reps).
inline constexpr int kVqeReps = 3;

/// Builds the paper's VQE ansatz, RealAmplitudes with full entanglement
/// (Qiskit's 2021 default): kVqeReps + 1 RY rotation layers interleaved
/// with kVqeReps blocks of CX between every qubit pair. `thetas` must
/// contain RealAmplitudesNumParameters(num_qubits) angles (layer-major).
/// The circuit structure — and hence its depth — is independent of the
/// problem Hamiltonian, which is why the paper's VQE depth depends only on
/// the qubit count, not on QUBO density.
QuantumCircuit BuildRealAmplitudes(int num_qubits,
                                   const std::vector<double>& thetas);

/// Number of parameters of the ansatz: n * (kVqeReps + 1).
int RealAmplitudesNumParameters(int num_qubits);

/// Template with small constant angles for depth studies.
QuantumCircuit BuildVqeTemplate(int num_qubits);

/// Gates of BuildVqeTemplate(num_qubits) without building it:
/// n (kVqeReps + 1) RY + kVqeReps n (n - 1) / 2 CX.
std::int64_t VqeTemplateGateCount(int num_qubits);

}  // namespace qopt
