#include "circuit/gate.h"

#include "common/check.h"

namespace qopt {

bool IsTwoQubitKind(GateKind kind) {
  switch (kind) {
    case GateKind::kCx:
    case GateKind::kCz:
    case GateKind::kRzz:
    case GateKind::kSwap:
      return true;
    default:
      return false;
  }
}

std::string GateKindName(GateKind kind) {
  switch (kind) {
    case GateKind::kH:
      return "h";
    case GateKind::kX:
      return "x";
    case GateKind::kY:
      return "y";
    case GateKind::kZ:
      return "z";
    case GateKind::kSx:
      return "sx";
    case GateKind::kRx:
      return "rx";
    case GateKind::kRy:
      return "ry";
    case GateKind::kRz:
      return "rz";
    case GateKind::kCx:
      return "cx";
    case GateKind::kCz:
      return "cz";
    case GateKind::kRzz:
      return "rzz";
    case GateKind::kSwap:
      return "swap";
  }
  QOPT_CHECK_MSG(false, "unknown gate kind");
  return "";
}

}  // namespace qopt
