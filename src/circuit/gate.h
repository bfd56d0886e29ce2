#pragma once

#include <string>

namespace qopt {

/// Gate kinds supported by the circuit IR. The set covers everything the
/// QAOA / VQE ansatz builders emit plus the device basis gates the
/// transpiler targets ({RZ, SX, X, CX} is the IBM-Q Falcon basis; we keep
/// the richer set and decompose on demand).
enum class GateKind {
  kH,     ///< Hadamard.
  kX,     ///< Pauli X.
  kY,     ///< Pauli Y.
  kZ,     ///< Pauli Z.
  kSx,    ///< sqrt(X).
  kRx,    ///< Rotation around X by `param`.
  kRy,    ///< Rotation around Y by `param`.
  kRz,    ///< Rotation around Z by `param`.
  kCx,    ///< Controlled-NOT; qubit0 = control, qubit1 = target.
  kCz,    ///< Controlled-Z (symmetric).
  kRzz,   ///< exp(-i * param/2 * Z (x) Z) two-qubit interaction (symmetric).
  kSwap,  ///< SWAP (symmetric).
};

/// One gate instance: kind, acted-on qubits, and rotation angle where
/// applicable.
struct Gate {
  GateKind kind;
  int qubit0 = -1;
  int qubit1 = -1;      ///< -1 for single-qubit gates.
  double param = 0.0;   ///< Rotation angle; unused for non-rotation gates.

  /// Number of qubits the gate acts on (1 or 2).
  int NumQubits() const { return qubit1 < 0 ? 1 : 2; }
};

/// True for two-qubit gate kinds.
bool IsTwoQubitKind(GateKind kind);

/// Short lowercase mnemonic ("h", "cx", "rzz", ...).
std::string GateKindName(GateKind kind);

}  // namespace qopt
