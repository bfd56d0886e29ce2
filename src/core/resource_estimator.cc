#include "core/resource_estimator.h"

#include <string>

#include "common/check.h"
#include "common/table_printer.h"
#include "qubo/conversions.h"
#include "transpile/basis_decomposer.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"
#include "variational/vqe_ansatz.h"

namespace qopt {

Status CheckTemplateGates(std::string_view what, std::int64_t gates) {
  if (gates <= kMaxTemplateGates) return OkStatus();
  return ResourceExhaustedError(StrFormat(
      "the %s template has %lld gates, more than the %lld a template may "
      "have",
      std::string(what).c_str(), static_cast<long long>(gates),
      static_cast<long long>(kMaxTemplateGates)));
}

StatusOr<GateResourceEstimate> EstimateGateResources(
    const QuboModel& qubo, const CouplingMap& coupling,
    const DeviceModel& device, const GateEstimateOptions& options) {
  QOPT_CHECK(qubo.NumVariables() >= 1);
  QOPT_RETURN_IF_ERROR(CheckTemplateGates(
      "QAOA", QaoaTemplateGateCount(qubo.NumVariables(),
                                    qubo.NumQuadraticTerms())));
  QOPT_RETURN_IF_ERROR(CheckTemplateGates(
      "VQE", VqeTemplateGateCount(qubo.NumVariables())));
  GateResourceEstimate estimate;
  estimate.logical_qubits = qubo.NumVariables();
  estimate.quadratic_terms = qubo.NumQuadraticTerms();
  estimate.max_reliable_depth = device.MaxReliableDepth();

  const IsingModel ising = QuboToIsing(qubo);
  const QuantumCircuit qaoa = BuildQaoaTemplate(ising);
  const QuantumCircuit vqe = BuildVqeTemplate(qubo.NumVariables());

  // Ideal topology: basis decomposition only, no routing.
  estimate.qaoa_depth_ideal = MergeAdjacentRz(DecomposeToBasis(qaoa)).Depth();
  estimate.vqe_depth_ideal = MergeAdjacentRz(DecomposeToBasis(vqe)).Depth();

  if (qubo.NumVariables() <= coupling.NumQubits()) {
    estimate.qaoa_depth_device =
        TranspiledDepthStats(qaoa, coupling, options.transpile_trials,
                             options.seed)
            .mean;
    estimate.vqe_depth_device =
        TranspiledDepthStats(vqe, coupling, options.transpile_trials,
                             options.seed)
            .mean;
    estimate.qaoa_within_coherence =
        estimate.qaoa_depth_device <= estimate.max_reliable_depth;
    estimate.vqe_within_coherence =
        estimate.vqe_depth_device <= estimate.max_reliable_depth;
  }
  return estimate;
}

}  // namespace qopt
