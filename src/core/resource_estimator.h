#pragma once

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "core/device_model.h"
#include "qubo/qubo_model.h"
#include "transpile/coupling_map.h"

namespace qopt {

/// Gate-based resource estimate for solving a QUBO on a device — the
/// quantities the paper reports in Figs. 8/9/13 and Table 4.
struct GateResourceEstimate {
  int logical_qubits = 0;
  int quadratic_terms = 0;
  /// Depth on an all-to-all ("optimal") topology.
  int qaoa_depth_ideal = 0;
  int vqe_depth_ideal = 0;
  /// Mean depth over `transpile_trials` routings onto the device topology;
  /// -1 when the problem needs more qubits than the device offers.
  double qaoa_depth_device = -1.0;
  double vqe_depth_device = -1.0;
  /// Whether the device-mean depth fits MaxReliableDepth() (Eq. 37/55).
  bool qaoa_within_coherence = false;
  bool vqe_within_coherence = false;
  int max_reliable_depth = 0;
};

/// Options for gate-resource estimation.
struct GateEstimateOptions {
  int transpile_trials = 20;  ///< Paper: mean over 20 transpilations.
  std::uint64_t seed = 0;
};

/// Largest circuit template, in gates, that EstimateGateResources or
/// `qqo qasm` builds. The full-entanglement VQE template grows as 3 n^2 / 2:
/// this admits about 3 300 qubits (a 20-relation star's 2 440-qubit
/// template is 8.9M gates and peaks near 800 MB in `qqo estimate`), and
/// refuses the 20-relation clique's 11 760 qubits (2.1e8 gates).
inline constexpr std::int64_t kMaxTemplateGates = std::int64_t{1} << 24;

/// RESOURCE_EXHAUSTED naming `what` and its gate count when `gates`
/// exceeds kMaxTemplateGates; OK otherwise.
Status CheckTemplateGates(std::string_view what, std::int64_t gates);

/// Builds the paper's QAOA (p = 1) and VQE (BuildVqeTemplate) circuits
/// for `qubo`, measures their ideal depths, routes
/// them onto `coupling` and compares against `device` coherence limits.
/// Before building either circuit it counts both templates' gates
/// (QaoaTemplateGateCount, VqeTemplateGateCount) and returns
/// CheckTemplateGates' RESOURCE_EXHAUSTED when one is too large.
StatusOr<GateResourceEstimate> EstimateGateResources(
    const QuboModel& qubo, const CouplingMap& coupling,
    const DeviceModel& device, const GateEstimateOptions& options = {});

}  // namespace qopt
