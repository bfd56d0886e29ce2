// Ablation: why the coherence-depth thresholds matter. Runs Monte-Carlo
// Pauli-noise trajectories of transpiled QAOA circuits of growing depth
// (MQO instances of growing size routed onto Mumbai) and reports the
// clean-shot fraction, mean state fidelity, and the closed-form
// reliability estimate. Expected: both collapse toward zero well before
// depth 248, matching the paper's argument that only the smallest MQO
// classes are reliably solvable on current devices.

#include <cstdio>

#include "bench_util.h"
#include "circuit/noise_model.h"
#include "common/table_printer.h"
#include "core/device_model.h"
#include "core/reliability.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/conversions.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"

int main() {
  using namespace qopt;
  qopt_bench::PrintHeader("Ablation",
                          "noisy execution of transpiled MQO QAOA circuits");
  const int trajectories = qopt_bench::Samples(200);
  std::printf("(%d Pauli-noise trajectories per point; Mumbai error "
              "rates)\n\n",
              trajectories);

  const DeviceModel device = MumbaiDevice();
  const CouplingMap mumbai = MakeMumbai27();
  const NoiseModel noise =
      NoiseModel::FromDevice(device.sx_error, device.cx_error);

  TablePrinter table({"plans", "routed depth", "clean shots", "mean fidelity",
                      "est. success (model)", "within coherence"});
  for (int queries : {2, 3, 4, 5}) {
    MqoGeneratorOptions gen;
    gen.num_queries = queries;
    gen.plans_per_query = 3;
    gen.saving_density = 0.2;
    gen.seed = 60 + queries;
    const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
    const QuantumCircuit qaoa = BuildQaoaTemplate(QuboToIsing(encoding.qubo));
    TranspileOptions transpile_options;
    transpile_options.seed = 1;
    const TranspileResult transpiled =
        TryTranspile(qaoa, mumbai, transpile_options).value();

    // Noise trajectories simulate only the logical qubits; restrict the
    // noisy run to the untranspiled circuit but use the transpiled gate
    // counts for the closed-form estimate, and scale the trajectory noise
    // by the routed/ideal gate ratio to keep the comparison honest.
    const double gate_ratio =
        static_cast<double>(transpiled.circuit.NumGates()) /
        static_cast<double>(qaoa.NumGates());
    NoiseModel scaled = noise;
    scaled.single_qubit_error =
        std::min(0.99, noise.single_qubit_error * gate_ratio);
    scaled.two_qubit_error =
        std::min(0.99, noise.two_qubit_error * gate_ratio);
    const NoisySamplingResult sampled =
        SampleNoisyCircuit(qaoa, scaled, trajectories, 5);
    const ReliabilityEstimate estimate =
        EstimateCircuitReliability(device, transpiled.circuit);

    table.AddRow({StrFormat("%d", 3 * queries),
                  StrFormat("%d", transpiled.depth),
                  StrFormat("%.0f%%", 100.0 * sampled.clean_fraction),
                  StrFormat("%.2f", sampled.mean_fidelity),
                  StrFormat("%.2f", estimate.success_probability),
                  estimate.within_coherence ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\nClean-shot probability and fidelity decay exponentially\n"
              "with gate count; circuits past the coherence budget are\n"
              "effectively noise (the paper's Sec. 3.6.1/5.3.2 argument).\n");
  return 0;
}
