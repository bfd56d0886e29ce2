#pragma once

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.h"
#include "qubo/ising_model.h"

namespace qopt {

/// Builds the QAOA state-preparation circuit |gamma, beta> (Eq. 20):
///
///   |s> = H^(x)n |0..0>, then p repetitions of
///   U(C, gamma_l) = prod RZZ(2 gamma_l J_ij) RZ(2 gamma_l h_i)   and
///   U(B, beta_l)  = prod RX(2 beta_l).
///
/// `gammas` and `betas` must have equal size p >= 1. The number of RZZ
/// gates per cost layer equals the number of non-zero couplings, which is
/// why the circuit depth grows with the number of quadratic QUBO terms
/// (Sec. 3.4.2) — the central effect the paper measures.
QuantumCircuit BuildQaoaCircuit(const IsingModel& ising,
                                const std::vector<double>& gammas,
                                const std::vector<double>& betas);

/// Convenience: the p=1 template circuit with all angles zero, used for
/// depth studies where only the structure matters.
QuantumCircuit BuildQaoaTemplate(const IsingModel& ising, int reps = 1);

/// Gates of BuildQaoaTemplate(QuboToIsing(qubo), reps) for a QUBO of
/// `num_qubits` variables and `quadratic_terms` terms, without building
/// it: n H + reps * (terms RZZ + n RZ + n RX). Exact when every Ising field
/// is non-zero; otherwise an upper bound (a zero field emits no RZ).
std::int64_t QaoaTemplateGateCount(int num_qubits, int quadratic_terms,
                                   int reps = 1);

}  // namespace qopt
