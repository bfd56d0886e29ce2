#pragma once

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.h"

namespace qopt {

/// Entanglement patterns for the hardware-efficient VQE ansatz.
enum class Entanglement {
  kFull,    ///< CX between every qubit pair per block (Qiskit's 2021
            ///< RealAmplitudes default, used by the paper's VQE runs).
  kLinear,  ///< CX chain 0-1, 1-2, ..., n-2 - n-1 per block.
};

/// Builds the RealAmplitudes-style VQE ansatz: (reps+1) RY rotation layers
/// interleaved with `reps` entanglement blocks. `thetas` must contain
/// n * (reps + 1) angles (layer-major). The circuit structure — and hence
/// its depth — is independent of the problem Hamiltonian, which is why the
/// paper's VQE depth depends only on the qubit count, not on QUBO density.
QuantumCircuit BuildRealAmplitudes(int num_qubits, int reps,
                                   const std::vector<double>& thetas,
                                   Entanglement entanglement =
                                       Entanglement::kFull);

/// Number of parameters of the ansatz: n * (reps + 1).
int RealAmplitudesNumParameters(int num_qubits, int reps);

/// Template with small constant angles for depth studies.
QuantumCircuit BuildVqeTemplate(int num_qubits, int reps = 3,
                                Entanglement entanglement =
                                    Entanglement::kFull);

/// Gates of BuildVqeTemplate(num_qubits, reps) with full entanglement,
/// without building it: n (reps + 1) RY + reps n (n - 1) / 2 CX.
std::int64_t VqeTemplateGateCount(int num_qubits, int reps = 3);

}  // namespace qopt
