#pragma once

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "qubo/ising_model.h"
#include "qubo/qubo_model.h"

namespace qopt {

/// Options for the Trotterized adiabatic-evolution simulation (Sec. 3.5):
/// the state starts in the ground state of the mixer H_B = -sum X (the
/// uniform superposition) and evolves under
///   H(t) = (1 - t/T) H_B + (t/T) H_P
/// discretized into `steps` first-order Trotter slices. Larger
/// `total_time` T keeps the system closer to the instantaneous ground
/// state (the adiabatic theorem, Eq. 24); the simulation makes the
/// T ~ 1/g_min^2 tradeoff directly observable.
struct AdiabaticOptions {
  double total_time = 20.0;  ///< Evolution duration T.
  int steps = 200;           ///< Trotter slices.
  int shots = 1024;          ///< Samples drawn from the final state.
  std::uint64_t seed = 0;
  /// Wall-clock budget, checked at every Trotter-step boundary. A
  /// partially evolved state is physically meaningless, so expiry is an
  /// error, not a degraded result. Unbounded by default.
  Deadline deadline;
};

/// Result of an adiabatic evolution run.
struct AdiabaticResult {
  std::vector<std::uint8_t> best_bits;  ///< Lowest-energy sample.
  double best_energy = 0.0;             ///< QUBO energy of best_bits.
  /// Probability mass on the exact ground state(s) of the problem
  /// Hamiltonian in the final state — the success probability the
  /// adiabatic theorem governs.
  double ground_state_probability = 0.0;
};

/// Largest QUBO the dense propagator evolves: every Trotter step touches
/// all 2^n amplitudes once per qubit.
inline constexpr int kMaxAdiabaticQubits = 20;

/// Simulates adiabatic evolution for the Ising form of `qubo` on the
/// statevector backend (exponential in qubits). Before any deadline poll
/// or fault point it refuses an empty QUBO with kInvalidArgument, one of
/// more than kMaxAdiabaticQubits variables with kResourceExhausted, then
/// out-of-range options (steps >= 1, total_time > 0, shots >= 1) with
/// kInvalidArgument. Returns kDeadlineExceeded / kCancelled when the
/// budget trips mid-evolution, and the "statevector.alloc" fault point
/// fires before the 2^n amplitude buffer is allocated.
StatusOr<AdiabaticResult> TrySolveQuboAdiabatically(
    const QuboModel& qubo, const AdiabaticOptions& options = {});

/// Spectral-gap diagnostics: the minimum gap g_min between the ground and
/// first excited energy of H(s) over the sweep s in [0,1], computed by
/// dense diagonalization-free power iteration on the 2^n Hamiltonian —
/// feasible only for very small systems (n <= 10).
struct SpectralGap {
  double min_gap = 0.0;
  double at_s = 0.0;  ///< Interpolation point of the minimum.
};

SpectralGap MinimumSpectralGap(const IsingModel& problem, int sweep_points = 51);

}  // namespace qopt
