#include "variational/qaoa.h"

#include "common/check.h"

namespace qopt {

QuantumCircuit BuildQaoaCircuit(const IsingModel& ising,
                                const std::vector<double>& gammas,
                                const std::vector<double>& betas) {
  QOPT_CHECK(!gammas.empty());
  QOPT_CHECK(gammas.size() == betas.size());
  const int n = ising.NumSpins();
  QuantumCircuit circuit(n);
  for (int q = 0; q < n; ++q) circuit.H(q);
  const auto couplings = ising.Couplings();
  for (std::size_t layer = 0; layer < gammas.size(); ++layer) {
    const double gamma = gammas[layer];
    // Cost unitary U(C, gamma) = exp(-i gamma C). For a coupling J s_i s_j
    // this is RZZ(2 gamma J); for a field h s_i it is RZ(2 gamma h).
    for (const auto& [edge, j] : couplings) {
      if (j != 0.0) circuit.Rzz(edge.first, edge.second, 2.0 * gamma * j);
    }
    for (int q = 0; q < n; ++q) {
      const double h = ising.Field(q);
      if (h != 0.0) circuit.Rz(q, 2.0 * gamma * h);
    }
    // Mixer unitary U(B, beta) = exp(-i beta sum X) = RX(2 beta) each.
    const double beta = betas[layer];
    for (int q = 0; q < n; ++q) circuit.Rx(q, 2.0 * beta);
  }
  return circuit;
}

QuantumCircuit BuildQaoaTemplate(const IsingModel& ising, int reps) {
  QOPT_CHECK(reps >= 1);
  // Zero angles still emit every gate, so the structure (and thus depth
  // after transpilation) matches a bound circuit. MergeAdjacentRz would
  // remove zero-angle rotations, so depth studies bind small non-zero
  // angles instead.
  const std::vector<double> gammas(static_cast<std::size_t>(reps), 0.1);
  const std::vector<double> betas(static_cast<std::size_t>(reps), 0.1);
  return BuildQaoaCircuit(ising, gammas, betas);
}

std::int64_t QaoaTemplateGateCount(int num_qubits, int quadratic_terms,
                                   int reps) {
  const std::int64_t n = num_qubits;
  return n + std::int64_t{reps} * (quadratic_terms + 2 * n);
}

}  // namespace qopt
