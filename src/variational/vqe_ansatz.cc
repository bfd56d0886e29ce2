#include "variational/vqe_ansatz.h"

#include "common/check.h"

namespace qopt {

int RealAmplitudesNumParameters(int num_qubits) {
  QOPT_CHECK(num_qubits >= 1);
  return num_qubits * (kVqeReps + 1);
}

QuantumCircuit BuildRealAmplitudes(int num_qubits,
                                   const std::vector<double>& thetas) {
  QOPT_CHECK(static_cast<int>(thetas.size()) ==
             RealAmplitudesNumParameters(num_qubits));
  QuantumCircuit circuit(num_qubits);
  std::size_t next = 0;
  auto rotation_layer = [&]() {
    for (int q = 0; q < num_qubits; ++q) circuit.Ry(q, thetas[next++]);
  };
  rotation_layer();
  for (int r = 0; r < kVqeReps; ++r) {
    for (int i = 0; i < num_qubits; ++i) {
      for (int j = i + 1; j < num_qubits; ++j) circuit.Cx(i, j);
    }
    rotation_layer();
  }
  return circuit;
}

QuantumCircuit BuildVqeTemplate(int num_qubits) {
  const std::vector<double> thetas(
      static_cast<std::size_t>(RealAmplitudesNumParameters(num_qubits)), 0.1);
  return BuildRealAmplitudes(num_qubits, thetas);
}

std::int64_t VqeTemplateGateCount(int num_qubits) {
  const std::int64_t n = num_qubits;
  return n * (kVqeReps + 1) + std::int64_t{kVqeReps} * n * (n - 1) / 2;
}

}  // namespace qopt
