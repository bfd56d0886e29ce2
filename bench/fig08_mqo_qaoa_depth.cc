// Reproduces Fig. 8: QAOA circuit depths for MQO problems vs the total
// number of plans, for varying plans-per-query (PPQ) and for the optimal
// (all-to-all) topology vs the IBM-Q Mumbai topology. Mean over randomly
// generated instances (paper: 20; override with QQO_BENCH_SAMPLES).
//
// Expected shape: depth grows with PPQ (denser E_M cliques); at 24 plans
// the 8-PPQ depth is roughly 65% above the 4-PPQ depth; routing onto
// Mumbai roughly doubles-to-triples the depth, worse for denser problems.

#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/conversions.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"

namespace {

using namespace qopt;

/// Mean QAOA depth over `samples` random instances for the given topology
/// (nullptr = optimal/all-to-all).
double MeanQaoaDepth(int num_queries, int ppq, int samples,
                     const CouplingMap* device) {
  // Instances are independent (one generator seed and one routing seed
  // each), so the sweep fans out on the default pool; every depth lands in
  // the slot of its instance, keeping the mean identical at any
  // QQO_THREADS setting.
  std::vector<double> depths(static_cast<std::size_t>(samples));
  ThreadPool::Default().ParallelFor(
      static_cast<std::size_t>(samples), [&](std::size_t i) {
        MqoGeneratorOptions gen;
        gen.num_queries = num_queries;
        gen.plans_per_query = ppq;
        gen.saving_density = 0.1;
        gen.seed = 1000 + static_cast<std::uint64_t>(i) * 31 + ppq;
        const MqoQuboEncoding encoding =
            EncodeMqoAsQubo(GenerateMqoProblem(gen));
        const QuantumCircuit qaoa =
            BuildQaoaTemplate(QuboToIsing(encoding.qubo));
        if (device == nullptr) {
          const CouplingMap full = MakeFullyConnected(qaoa.NumQubits());
          depths[i] = TranspiledDepthStats(qaoa, full, 1).mean;
        } else {
          depths[i] =
              TryTranspileManySeeds(qaoa, *device, {i}).value()[0].depth;
        }
      });
  return Mean(depths);
}

}  // namespace

int main() {
  using qopt_bench::PrintHeader;
  using qopt_bench::Samples;
  PrintHeader("Figure 8", "MQO QAOA circuit depths vs plans, PPQ, topology");
  const int samples = Samples(qopt_bench::FastMode() ? 5 : 20);
  std::printf("(%d random instances per point)\n\n", samples);

  const CouplingMap mumbai = MakeMumbai27();

  std::printf("Left chart — optimal topology, PPQ in {2, 4, 8}:\n");
  TablePrinter left({"total plans", "ppq=2", "ppq=4", "ppq=8"});
  for (int plans = 8; plans <= 24; plans += 4) {
    std::vector<std::string> row = {StrFormat("%d", plans)};
    for (int ppq : {2, 4, 8}) {
      row.push_back(plans % ppq == 0
                        ? StrFormat("%.1f", MeanQaoaDepth(plans / ppq, ppq,
                                                          samples, nullptr))
                        : "-");
    }
    left.AddRow(row);
  }
  left.Print();

  std::printf("\nRight chart — optimal vs Mumbai topology (PPQ 4 and 8):\n");
  TablePrinter right({"total plans", "ppq=4 optimal", "ppq=4 mumbai",
                      "ppq=8 optimal", "ppq=8 mumbai"});
  for (int plans = 8; plans <= 24; plans += 8) {
    right.AddRow({static_cast<double>(plans),
                  MeanQaoaDepth(plans / 4, 4, samples, nullptr),
                  MeanQaoaDepth(plans / 4, 4, samples, &mumbai),
                  MeanQaoaDepth(plans / 8, 8, samples, nullptr),
                  MeanQaoaDepth(plans / 8, 8, samples, &mumbai)},
                 1);
  }
  right.Print();

  const double ppq4 = MeanQaoaDepth(6, 4, samples, nullptr);
  const double ppq8 = MeanQaoaDepth(3, 8, samples, nullptr);
  const double ppq4_dev = MeanQaoaDepth(6, 4, samples, &mumbai);
  const double ppq8_dev = MeanQaoaDepth(3, 8, samples, &mumbai);
  std::printf("\nAt 24 plans: 8 PPQ is %.0f%% deeper than 4 PPQ "
              "(paper: ~65%%)\n",
              100.0 * (ppq8 / ppq4 - 1.0));
  std::printf("Mumbai overhead at 24 plans: +%.0f%% (4 PPQ, paper ~116%%), "
              "+%.0f%% (8 PPQ, paper ~160%%)\n",
              100.0 * (ppq4_dev / ppq4 - 1.0),
              100.0 * (ppq8_dev / ppq8 - 1.0));
  return 0;
}
