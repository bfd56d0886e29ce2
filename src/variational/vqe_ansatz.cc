#include "variational/vqe_ansatz.h"

#include "common/check.h"

namespace qopt {

int RealAmplitudesNumParameters(int num_qubits, int reps) {
  QOPT_CHECK(num_qubits >= 1);
  QOPT_CHECK(reps >= 0);
  return num_qubits * (reps + 1);
}

QuantumCircuit BuildRealAmplitudes(int num_qubits, int reps,
                                   const std::vector<double>& thetas,
                                   Entanglement entanglement) {
  QOPT_CHECK(static_cast<int>(thetas.size()) ==
             RealAmplitudesNumParameters(num_qubits, reps));
  QuantumCircuit circuit(num_qubits);
  std::size_t next = 0;
  auto rotation_layer = [&]() {
    for (int q = 0; q < num_qubits; ++q) circuit.Ry(q, thetas[next++]);
  };
  rotation_layer();
  for (int r = 0; r < reps; ++r) {
    switch (entanglement) {
      case Entanglement::kFull:
        for (int i = 0; i < num_qubits; ++i) {
          for (int j = i + 1; j < num_qubits; ++j) circuit.Cx(i, j);
        }
        break;
      case Entanglement::kLinear:
        for (int i = 0; i + 1 < num_qubits; ++i) circuit.Cx(i, i + 1);
        break;
    }
    rotation_layer();
  }
  return circuit;
}

QuantumCircuit BuildVqeTemplate(int num_qubits, int reps,
                                Entanglement entanglement) {
  const std::vector<double> thetas(
      static_cast<std::size_t>(RealAmplitudesNumParameters(num_qubits, reps)),
      0.1);
  return BuildRealAmplitudes(num_qubits, reps, thetas, entanglement);
}

std::int64_t VqeTemplateGateCount(int num_qubits, int reps) {
  const std::int64_t n = num_qubits;
  return n * (reps + 1) + std::int64_t{reps} * n * (n - 1) / 2;
}

}  // namespace qopt
