// Reproduces Fig. 9: VQE vs QAOA circuit depths for MQO problems, on the
// optimal topology and on IBM-Q Mumbai, and the comparison against the
// Mumbai coherence budget (Eq. 37).
//
// Expected shape: VQE's ideal depth grows linearly with the plan count and
// is independent of QUBO density, but routing the full-entanglement ansatz
// onto the heavy-hex topology inflates it by close to an order of
// magnitude (paper: 97 -> ~970 at 24 plans), far worse than QAOA's
// overhead; beyond ~12 plans VQE exceeds the coherence budget of 248.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/device_model.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/conversions.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"
#include "variational/vqe_ansatz.h"

namespace {

using namespace qopt;

double MeanQaoaDepth(int num_queries, int ppq, int samples,
                     const CouplingMap& coupling, int trials_per_instance) {
  std::vector<double> depths;
  for (int i = 0; i < samples; ++i) {
    MqoGeneratorOptions gen;
    gen.num_queries = num_queries;
    gen.plans_per_query = ppq;
    gen.saving_density = 0.1;
    gen.seed = 2000 + static_cast<std::uint64_t>(i) * 17 + ppq;
    const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
    depths.push_back(
        TranspiledDepthStats(BuildQaoaTemplate(QuboToIsing(encoding.qubo)),
                             coupling, trials_per_instance)
            .mean);
  }
  return Mean(depths);
}

}  // namespace

int main() {
  using qopt_bench::PrintHeader;
  using qopt_bench::Samples;
  PrintHeader("Figure 9", "MQO circuit depths: VQE vs QAOA");
  const int samples = Samples(qopt_bench::FastMode() ? 5 : 20);
  const int vqe_trials = Samples(qopt_bench::FastMode() ? 5 : 20);
  std::printf("(%d instances per QAOA point, %d transpilations per VQE "
              "point)\n\n",
              samples, vqe_trials);

  const CouplingMap mumbai = MakeMumbai27();
  const int budget = MumbaiDevice().MaxReliableDepth();

  TablePrinter table({"plans", "vqe optimal", "vqe mumbai", "qaoa4 optimal",
                      "qaoa4 mumbai", "qaoa8 optimal", "qaoa8 mumbai"});
  for (int plans = 8; plans <= 24; plans += 8) {
    const QuantumCircuit vqe = BuildVqeTemplate(plans, 3);
    const CouplingMap full = MakeFullyConnected(plans);
    table.AddRow(
        {static_cast<double>(plans), TranspiledDepthStats(vqe, full, 1).mean,
         TranspiledDepthStats(vqe, mumbai, vqe_trials).mean,
         MeanQaoaDepth(plans / 4, 4, samples, full, 1),
         MeanQaoaDepth(plans / 4, 4, samples, mumbai, 1),
         MeanQaoaDepth(plans / 8, 8, samples, full, 1),
         MeanQaoaDepth(plans / 8, 8, samples, mumbai, 1)},
        1);
  }
  table.Print();

  const QuantumCircuit vqe24 = BuildVqeTemplate(24, 3);
  const double vqe_ideal =
      TranspiledDepthStats(vqe24, MakeFullyConnected(24), 1).mean;
  const double vqe_device =
      TranspiledDepthStats(vqe24, mumbai, vqe_trials).mean;
  std::printf("\nVQE at 24 plans: %.0f ideal -> %.0f on Mumbai "
              "(+%.0f%%; paper: 97 -> ~970, +900%%)\n",
              vqe_ideal, vqe_device, 100.0 * (vqe_device / vqe_ideal - 1.0));
  std::printf("Mumbai coherence budget (Eq. 37): depth %d\n", budget);
  std::printf("VQE exceeds the budget beyond ~12 plans: 12-plan depth %.0f, "
              "16-plan depth %.0f\n",
              TranspiledDepthStats(BuildVqeTemplate(12, 3), mumbai, vqe_trials)
                  .mean,
              TranspiledDepthStats(BuildVqeTemplate(16, 3), mumbai, vqe_trials)
                  .mean);
  return 0;
}
