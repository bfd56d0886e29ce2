#pragma once

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.h"
#include "circuit/statevector.h"
#include "common/deadline.h"
#include "common/status.h"
#include "qubo/qubo_model.h"
#include "variational/vqe_ansatz.h"

namespace qopt {

/// Options for the hybrid quantum-classical solvers. Both run the paper's
/// setup under one outer optimizer, Nelder–Mead (MinimizeNelderMead): QAOA
/// with p = qaoa_reps repetitions (default 1), VQE with the fixed
/// RealAmplitudes ansatz (kVqeReps = 3, full entanglement).
struct VariationalOptions {
  int qaoa_reps = 1;  ///< QAOA only; VQE's depth is the constant kVqeReps.
  int max_iterations = 300;
  int shots = 1024;  ///< Samples drawn from the optimal state.
  std::uint64_t seed = 0;
  /// Wall-clock budget, checked at every outer-optimizer iteration and
  /// before every simulated gate of the final sampling circuit. A
  /// variational result from a truncated optimization is not meaningful,
  /// so expiry is an error (kDeadlineExceeded), not a degraded result —
  /// the facade is the layer that falls back classically. Unbounded by
  /// default.
  Deadline deadline;
};

/// Result of a hybrid solve. `best_bits` is the lowest-energy sample drawn
/// from the optimized state (the MinimumEigenOptimizer behaviour).
struct VariationalResult {
  std::vector<std::uint8_t> best_bits;
  double best_energy = 0.0;       ///< QUBO energy of best_bits.
  double expectation = 0.0;       ///< <H> of the optimized state.
  QuantumCircuit optimal_circuit; ///< Ansatz bound to the optimal angles.
  int evaluations = 0;            ///< Objective (circuit) evaluations.
};

/// Solve a QUBO with QAOA / VQE simulated on the statevector backend.
/// Before any deadline poll or fault point, both refuse an empty QUBO and
/// out-of-range options (max_iterations >= 1, shots >= 1, and for QAOA
/// qaoa_reps >= 1) with kInvalidArgument, and a QUBO of
/// more than kMaxStatevectorQubits variables with kResourceExhausted (the
/// size is checked first). Both return kDeadlineExceeded / kCancelled when
/// the budget trips, and the "statevector.alloc" fault point fires before
/// each 2^n amplitude/energy-table allocation.
StatusOr<VariationalResult> TrySolveQuboWithQaoa(
    const QuboModel& qubo, const VariationalOptions& options = {});
StatusOr<VariationalResult> TrySolveQuboWithVqe(
    const QuboModel& qubo, const VariationalOptions& options = {});

}  // namespace qopt
