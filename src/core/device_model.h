#pragma once

#include <string>

namespace qopt {

/// Calibration summary of a gate-based quantum device: everything the
/// paper uses to judge whether a circuit can run reliably.
struct DeviceModel {
  std::string name;
  int num_qubits = 0;
  double t1_us = 0.0;            ///< Relaxation time T1 in microseconds.
  double t2_us = 0.0;            ///< Dephasing time T2 in microseconds.
  double avg_gate_time_ns = 0.0; ///< Mean gate duration in nanoseconds.
  double cx_error = 0.0;         ///< Mean two-qubit (CX) gate error rate.
  double sx_error = 0.0;         ///< Mean single-qubit gate error rate.
  double readout_error = 0.0;    ///< Mean per-qubit readout error rate.

  /// Maximum circuit depth executable within the coherence time
  /// (Eq. 37/55): floor(min(T1, T2) / g_avg).
  int MaxReliableDepth() const;

  /// Decoherence-error probability after executing a circuit of the given
  /// depth (Eq. 36): 1 - exp(-t / T) with t = depth * g_avg.
  double DecoherenceErrorProbability(int depth) const;
};

/// IBM-Q Mumbai (27-qubit Falcon) with the calibration constants quoted in
/// Sec. 5.3.2 — MaxReliableDepth() == 248.
DeviceModel MumbaiDevice();

/// IBM-Q Brooklyn (65-qubit Hummingbird) with the constants of Sec. 6.3.4
/// — MaxReliableDepth() == 178.
DeviceModel BrooklynDevice();

}  // namespace qopt
