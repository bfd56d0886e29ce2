// Runtime microbenchmarks (google-benchmark) for the library's hot paths:
// encoders, solvers, statevector simulation, transpilation and embedding.

#include <benchmark/benchmark.h>

#include "anneal/anneal_internal.h"
#include "anneal/chimera.h"
#include "anneal/embedding_composite.h"
#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "anneal/simulated_annealer.h"
#include "circuit/statevector.h"
#include "bilp/bilp_to_qubo.h"
#include "joinorder/join_order_baselines.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "common/random.h"
#include "core/quantum_optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qubo/brute_force_solver.h"
#include "qubo/conversions.h"
#include "serve/server.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"
#include "variational/variational_solver.h"

namespace {

using namespace qopt;

void BM_EncodeMqoAsQubo(benchmark::State& state) {
  MqoGeneratorOptions gen;
  gen.num_queries = static_cast<int>(state.range(0));
  gen.plans_per_query = 8;
  gen.seed = 1;
  const MqoProblem problem = GenerateMqoProblem(gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeMqoAsQubo(problem));
  }
}
BENCHMARK(BM_EncodeMqoAsQubo)->Arg(4)->Arg(16)->Arg(64);

void BM_EncodeJoinOrderBilp(benchmark::State& state) {
  QueryGeneratorOptions gen;
  gen.num_relations = static_cast<int>(state.range(0));
  gen.num_predicates = gen.num_relations - 1;
  gen.seed = 1;
  const QueryGraph graph = GenerateRandomQuery(gen);
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0, 100.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeJoinOrderAsBilp(graph, options));
  }
}
BENCHMARK(BM_EncodeJoinOrderBilp)->Arg(4)->Arg(10)->Arg(20);

void BM_BilpToQubo(benchmark::State& state) {
  QueryGeneratorOptions gen;
  gen.num_relations = static_cast<int>(state.range(0));
  gen.num_predicates = gen.num_relations - 1;
  gen.seed = 1;
  const QueryGraph graph = GenerateRandomQuery(gen);
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0, 100.0};
  const JoinOrderEncoding encoding = EncodeJoinOrderAsBilp(graph, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeBilpAsQubo(encoding.bilp));
  }
}
BENCHMARK(BM_BilpToQubo)->Arg(4)->Arg(10)->Arg(20);

void BM_SimulatedAnnealing(benchmark::State& state) {
  MqoGeneratorOptions gen;
  gen.num_queries = static_cast<int>(state.range(0));
  gen.plans_per_query = 4;
  gen.seed = 1;
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
  AnnealOptions options;
  options.num_reads = 5;
  options.num_sweeps = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TrySolveQuboWithAnnealing(encoding.qubo, options).value());
  }
}
BENCHMARK(BM_SimulatedAnnealing)->Arg(4)->Arg(16)->Arg(64);

// Random QUBO with a given edge density — exercises the annealer's sweep
// kernel directly, across the sparse-CSR / dense-row layout boundary
// (dense rows kick in at density >= 0.35). range(0) = variables,
// range(1) = density in percent.
QuboBuilder RandomQuboTerms(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  QuboBuilder qubo(n);
  for (int i = 0; i < n; ++i) {
    qubo.AddLinear(i, rng.NextDouble() * 2.0 - 1.0);
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextDouble() < density) {
        qubo.AddQuadratic(i, j, rng.NextDouble() * 2.0 - 1.0);
      }
    }
  }
  return qubo;
}

QuboModel MakeRandomQubo(int n, double density, std::uint64_t seed) {
  return RandomQuboTerms(n, density, seed).Build();
}

void BM_SaSweepDensity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  const QuboModel qubo = MakeRandomQubo(n, density, 7);
  AnnealOptions options;
  options.num_reads = 4;
  options.num_sweeps = 300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrySolveQuboWithAnnealing(qubo, options).value());
  }
  state.SetItemsProcessed(state.iterations() * options.num_reads *
                          options.num_sweeps * n);
}
BENCHMARK(BM_SaSweepDensity)
    ->ArgsProduct({{32, 64, 128}, {10, 50, 100}});

// The block a decomposed solve anneals: the facade clamps every block
// solve to 8 reads x 1000 sweeps, and a join-order block is a dense
// 20-26-variable QUBO dominated by constraint penalties. Here 24
// variables carry small random costs under one-hot penalties
// P * (1 - sum x)^2 over four rows of six.
QuboModel MakePenaltyBlock() {
  constexpr int kRows = 4;
  constexpr int kCols = 6;
  constexpr double kPenalty = 10.0;
  QuboBuilder qubo = RandomQuboTerms(kRows * kCols, 0.4, 305);
  for (int r = 0; r < kRows; ++r) {
    for (int a = 0; a < kCols; ++a) {
      qubo.AddLinear(r * kCols + a, -kPenalty);
      for (int b = a + 1; b < kCols; ++b) {
        qubo.AddQuadratic(r * kCols + a, r * kCols + b, 2.0 * kPenalty);
      }
    }
    qubo.AddOffset(kPenalty);
  }
  return std::move(qubo).Build();
}

// Items = proposals.
void BM_SaDecomposeBlock(benchmark::State& state) {
  const QuboModel qubo = MakePenaltyBlock();
  AnnealOptions options;
  options.num_reads = 8;
  options.num_sweeps = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrySolveQuboWithAnnealing(qubo, options).value());
  }
  state.SetItemsProcessed(state.iterations() * options.num_reads *
                          options.num_sweeps * qubo.NumVariables());
}
BENCHMARK(BM_SaDecomposeBlock);

// The pack widths whose kernel this host runs (1 = the scalar sweep).
// Rows of the others are not registered, so no snapshot holds an empty
// row for them.
std::vector<int> HostPackWidths() {
  std::vector<int> widths;
  for (const int width : {1, 4, 8}) {
    if (width <= anneal_internal::HostPackWidth()) widths.push_back(width);
  }
  return widths;
}

// Anneals `options` with every pack forced to the `width`-lane kernel.
void RunAtPackWidth(benchmark::State& state, const QuboModel& qubo,
                    const AnnealOptions& options, int width) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        anneal_internal::TrySolveQuboWithAnnealingAtWidth(qubo, options,
                                                          width)
            .value());
  }
  state.SetItemsProcessed(state.iterations() * options.num_reads *
                          options.num_sweeps * qubo.NumVariables());
}

// BM_SaDecomposeBlock's 8 x 1000 anneal at each pack width, so that each
// kernel stays timed whichever one the host routes full packs to.
// range(0) = lanes per pack. Items = proposals.
void BM_SaPackWidth(benchmark::State& state) {
  AnnealOptions options;
  options.num_reads = 8;
  options.num_sweeps = 1000;
  RunAtPackWidth(state, MakePenaltyBlock(), options,
                 static_cast<int>(state.range(0)));
}
BENCHMARK(BM_SaPackWidth)->Apply([](benchmark::internal::Benchmark* b) {
  for (const int width : HostPackWidths()) b->Arg(width);
});

// The timings behind the annealer's routing of partial packs (scalar
// below 3 live reads, 4 lanes for 3-4, 8 lanes from 5): `live` reads x
// 200 sweeps through one kernel, on the three shapes the rule was chosen
// from, at the live counts either side of each boundary. range(0) = QUBO
// (0 = the dense 100-variable QUBO of a 10 x 10 MQO batch, 1 = the dense
// 24-variable penalty block, 2 = a sparse 64-variable QUBO at 10%
// density), range(1) = live reads, range(2) = kernel lanes.
// Items = proposals.
void BM_SaPackRoute(benchmark::State& state) {
  QuboModel qubo;
  switch (state.range(0)) {
    case 0: {
      MqoGeneratorOptions gen;
      gen.num_queries = 10;
      gen.plans_per_query = 10;
      gen.seed = 1;
      qubo = EncodeMqoAsQubo(GenerateMqoProblem(gen)).qubo;
      break;
    }
    case 1:
      qubo = MakePenaltyBlock();
      break;
    default:
      qubo = MakeRandomQubo(64, 0.1, 7);
  }
  AnnealOptions options;
  options.num_reads = static_cast<int>(state.range(1));
  options.num_sweeps = 200;
  RunAtPackWidth(state, qubo, options, static_cast<int>(state.range(2)));
}
BENCHMARK(BM_SaPackRoute)->Apply([](benchmark::internal::Benchmark* b) {
  for (const int qubo : {0, 1, 2}) {
    for (const int live : {2, 3, 4, 5}) {
      for (const int width : HostPackWidths()) b->Args({qubo, live, width});
    }
  }
});

// The annealer's group-move path: SA on the physical problem of an MQO
// batch embedded into Pegasus P4, with the chains as flip groups (what an
// `annealer` solve runs after embedding). The embedding is found once,
// outside the timed loop. range(0) = logical variables (4 plans per
// query); items = proposals (single flips plus group moves).
void BM_EmbeddedAnnealSweep(benchmark::State& state) {
  MqoGeneratorOptions gen;
  gen.num_queries = static_cast<int>(state.range(0)) / 4;
  gen.plans_per_query = 4;
  gen.seed = 1;
  const QuboModel logical = EncodeMqoAsQubo(GenerateMqoProblem(gen)).qubo;
  const SimpleGraph topology = MakePegasus(4);
  EmbedOptions embed;
  embed.seed = 1;
  const auto embedding =
      TryFindMinorEmbedding(logical.InteractionGraph(), topology, embed);
  if (!embedding.ok()) {
    state.SkipWithError("no embedding");
    return;
  }
  const EmbeddedProblem problem =
      BuildEmbeddedProblem(logical, topology, *embedding, 0.0);
  AnnealOptions options;
  options.num_reads = 8;
  options.num_sweeps = 500;
  options.flip_groups = problem.chains;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TrySolveQuboWithAnnealing(problem.qubo, options).value());
  }
  state.SetItemsProcessed(
      state.iterations() * options.num_reads * options.num_sweeps *
      (problem.qubo.NumVariables() + logical.NumVariables()));
}
BENCHMARK(BM_EmbeddedAnnealSweep)->Arg(12)->Arg(16);

void BM_BruteForceQubo(benchmark::State& state) {
  MqoGeneratorOptions gen;
  gen.num_queries = static_cast<int>(state.range(0));
  gen.plans_per_query = 4;
  gen.seed = 1;
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrySolveQuboBruteForce(encoding.qubo).value());
  }
}
BENCHMARK(BM_BruteForceQubo)->Arg(3)->Arg(4)->Arg(5);

void BM_StatevectorQaoa(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MqoGeneratorOptions gen;
  gen.num_queries = n / 4;
  gen.plans_per_query = 4;
  gen.seed = 1;
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
  const IsingModel ising = QuboToIsing(encoding.qubo);
  const QuantumCircuit circuit = BuildQaoaCircuit(ising, {0.4}, {0.3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateCircuit(circuit));
  }
}
BENCHMARK(BM_StatevectorQaoa)->Arg(8)->Arg(12)->Arg(16);

// Raw single-qubit gate throughput up to the parallel threshold: layers of
// H/RX/RY across every qubit (nothing diagonal, so nothing fuses away and
// every gate goes through the vectorized ApplySingleQubit kernel).
void BM_StatevectorGateLayer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kLayers = 4;
  QuantumCircuit circuit(n);
  for (int layer = 0; layer < kLayers; ++layer) {
    for (int q = 0; q < n; ++q) circuit.H(q);
    for (int q = 0; q < n; ++q) circuit.Rx(q, 0.3);
    for (int q = 0; q < n; ++q) circuit.Ry(q, 0.7);
  }
  Statevector sv(n);
  for (auto _ : state) {
    sv.Reset();
    sv.ApplyCircuit(circuit);
    benchmark::DoNotOptimize(sv.Amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * kLayers * 3 * n);
}
BENCHMARK(BM_StatevectorGateLayer)->DenseRange(10, 14, 2);

void BM_TranspileToMumbai(benchmark::State& state) {
  MqoGeneratorOptions gen;
  gen.num_queries = static_cast<int>(state.range(0));
  gen.plans_per_query = 4;
  gen.seed = 1;
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
  const QuantumCircuit qaoa = BuildQaoaTemplate(QuboToIsing(encoding.qubo));
  const CouplingMap mumbai = MakeMumbai27();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    TranspileOptions options;
    options.seed = seed++;
    benchmark::DoNotOptimize(TryTranspile(qaoa, mumbai, options).value());
  }
}
BENCHMARK(BM_TranspileToMumbai)->Arg(3)->Arg(5)->Arg(6);

void BM_TranspileManySeeds(benchmark::State& state) {
  MqoGeneratorOptions gen;
  gen.num_queries = 5;
  gen.plans_per_query = 4;
  gen.seed = 1;
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
  const QuantumCircuit qaoa = BuildQaoaTemplate(QuboToIsing(encoding.qubo));
  const CouplingMap mumbai = MakeMumbai27();
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < static_cast<std::uint64_t>(state.range(0));
       ++s) {
    seeds.push_back(s);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TryTranspileManySeeds(qaoa, mumbai, seeds).value());
  }
}
BENCHMARK(BM_TranspileManySeeds)->Arg(4)->Arg(20)->UseRealTime();

void BM_QaoaSolveEndToEnd(benchmark::State& state) {
  MqoGeneratorOptions gen;
  gen.num_queries = static_cast<int>(state.range(0)) / 4;
  gen.plans_per_query = 4;
  gen.seed = 1;
  const MqoQuboEncoding encoding = EncodeMqoAsQubo(GenerateMqoProblem(gen));
  VariationalOptions options;
  options.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TrySolveQuboWithQaoa(encoding.qubo, options).value());
  }
}
BENCHMARK(BM_QaoaSolveEndToEnd)->Arg(12)->Arg(16)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MakePegasus(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakePegasus(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_MakePegasus)->Arg(4)->Arg(8)->Arg(16);

void BM_MinorEmbedIntoChimera(benchmark::State& state) {
  QueryGeneratorOptions gen;
  gen.num_relations = 3;
  gen.num_predicates = 2;
  gen.seed = 1;
  const QueryGraph graph = GenerateRandomQuery(gen);
  JoinOrderEncoderOptions options;
  options.thresholds = {10.0};
  const BilpQuboEncoding qubo =
      EncodeBilpAsQubo(EncodeJoinOrderAsBilp(graph, options).bilp);
  const SimpleGraph source = qubo.qubo.InteractionGraph();
  const SimpleGraph target = MakeChimera(8, 8, 4);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    EmbedOptions embed;
    embed.seed = seed++;
    benchmark::DoNotOptimize(TryFindMinorEmbedding(source, target, embed));
  }
}
BENCHMARK(BM_MinorEmbedIntoChimera);

// Disarmed-observability overhead pair: the same synthetic sweep kernel
// with and without the obs instrumentation that now sits in the real hot
// loops (one QQO_TRACE_SPAN per solve-sized unit, one QQO_COUNT per
// sweep-sized unit of ~32 arithmetic ops — the same density as
// anneal.sweeps). tools/perf_baseline.sh --check compares the two and
// fails if the disarmed instrumentation costs more than the tolerance.
constexpr int kObsSweeps = 512;
constexpr int kObsOpsPerSweep = 32;

inline std::uint64_t ObsKernelSweep(std::uint64_t acc) {
  for (int i = 0; i < kObsOpsPerSweep; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc;
}

void BM_ObsDisarmedBaseline(benchmark::State& state) {
  std::uint64_t acc = 1;
  for (auto _ : state) {
    for (int sweep = 0; sweep < kObsSweeps; ++sweep) {
      acc = ObsKernelSweep(acc);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ObsDisarmedBaseline);

void BM_ObsDisarmedTraced(benchmark::State& state) {
  std::uint64_t acc = 1;
  for (auto _ : state) {
    QQO_TRACE_SPAN("bench.obs_kernel");
    for (int sweep = 0; sweep < kObsSweeps; ++sweep) {
      QQO_COUNT("anneal.sweeps", 1);
      acc = ObsKernelSweep(acc);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ObsDisarmedTraced);

// Dispatch-overhead pair on the paper's 8-qubit MQO example: the serial
// path runs the exact oracle directly; the raced path fans the portfolio
// out over the thread pool, cancels the losers and reduces the lane
// slots to a winner. The gap between the two is the full cost of the
// racing machinery (lane setup, cancellation, join, reduction), which
// the perf gate tracks alongside the solver kernels.
void BM_RaceDispatchSerial(benchmark::State& state) {
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kExact;
  options.dispatch = DispatchMode::kSerial;
  options.seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrySolveMqo(problem, options));
  }
}
BENCHMARK(BM_RaceDispatchSerial)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_RaceDispatchRace(benchmark::State& state) {
  const MqoProblem problem = MakePaperExampleMqo();
  OptimizerOptions options;
  options.backend = Backend::kExact;
  options.dispatch = DispatchMode::kRace;
  options.seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrySolveMqo(problem, options));
  }
}
BENCHMARK(BM_RaceDispatchRace)->UseRealTime()->Unit(benchmark::kMillisecond);

// Hybrid decomposition over a QUBO past every backend cap: the full
// partition -> clamped block solves -> stitch -> tabu refinement loop at
// its cheap per-block anneal settings, on the 10x10 MQO batch shape (100
// qubits, ~1.4k savings). Tracks the decomposition machinery end to end
// the way the race benchmarks track the racing machinery.
void BM_DecomposeSolve(benchmark::State& state) {
  MqoGeneratorOptions gen;
  gen.num_queries = 10;
  gen.plans_per_query = 10;
  gen.seed = 4;
  const MqoProblem problem = GenerateMqoProblem(gen);
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.decompose = static_cast<int>(state.range(0));
  options.seed = 17;
  options.anneal.num_reads = 2;
  options.anneal.num_sweeps = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrySolveMqo(problem, options));
  }
}
BENCHMARK(BM_DecomposeSolve)
    ->Arg(16)
    ->Arg(26)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same loop on the join-order shape: a 12-relation chain's
// penalty-dominated BILP QUBO, where many clamped blocks are forced and
// solved in place instead of being annealed. BM_DecomposeSolve's MQO
// blocks are not, so the two together cover both block paths.
void BM_DecomposeJoinOrder(benchmark::State& state) {
  const QueryGraph graph = GenerateChainQuery(12, 100.0, 0.2);
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.safe_slack_bounds = true;
  OptimizerOptions options;
  options.backend = Backend::kSimulatedAnnealing;
  options.decompose = 26;
  options.seed = 17;
  options.anneal.num_reads = 2;
  options.anneal.num_sweeps = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrySolveJoinOrder(graph, encoder, options));
  }
}
BENCHMARK(BM_DecomposeJoinOrder)->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_JoinOrderDp(benchmark::State& state) {
  QueryGeneratorOptions gen;
  gen.num_relations = static_cast<int>(state.range(0));
  gen.num_predicates = gen.num_relations + 2;
  gen.cardinality_min = 10;
  gen.cardinality_max = 100000;
  gen.selectivity_min = 0.001;
  gen.seed = 1;
  const QueryGraph graph = GenerateRandomQuery(gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveJoinOrderDp(graph));
  }
}
BENCHMARK(BM_JoinOrderDp)->Arg(8)->Arg(12)->Arg(16);

// Serving-path benchmarks: one full line -> response round trip through
// the qqo_serve request loop (parse, validate, canonicalize, cache probe,
// emit). The hit/miss pair quantifies what the canonical-form solution
// cache saves over re-solving; the shed benchmark isolates the admission
// path (parse + deterministic kUnavailable reject) that overload
// protection adds in front of every solve.
constexpr const char* kServeMqoRequest =
    "{\"id\":\"m1\",\"type\":\"mqo\",\"backend\":\"exact\","
    "\"workload\":{\"queries\":[{\"plans\":[{\"cost\":5},{\"cost\":7}]},"
    "{\"plans\":[{\"cost\":6},{\"cost\":9}]}],"
    "\"savings\":[{\"plan1\":0,\"plan2\":2,\"saving\":2}]}}";

void BM_ServeCacheHit(benchmark::State& state) {
  serve::ServerOptions options;
  serve::Server server(options);
  const std::string request = std::string(kServeMqoRequest) + "\n";
  {
    std::istringstream warm(request);
    std::ostringstream sink;
    if (!server.Serve(warm, sink).ok()) state.SkipWithError("warmup failed");
  }
  for (auto _ : state) {
    std::istringstream in(request);
    std::ostringstream out;
    benchmark::DoNotOptimize(server.Serve(in, out));
    benchmark::DoNotOptimize(out);
  }
  if (server.Cache().Counters().hits_exact < 1) {
    state.SkipWithError("expected exact cache hits");
  }
}
BENCHMARK(BM_ServeCacheHit);

void BM_ServeCacheMiss(benchmark::State& state) {
  // cache:false forces the full solve on every line — the cost a hit
  // avoids (the workload is the paper's tiny MQO example, so this stays
  // a microbenchmark).
  serve::ServerOptions options;
  serve::Server server(options);
  std::string request = kServeMqoRequest;
  request.replace(request.find("\"type\""), 6, "\"cache\":false,\"type\"");
  request += "\n";
  for (auto _ : state) {
    std::istringstream in(request);
    std::ostringstream out;
    benchmark::DoNotOptimize(server.Serve(in, out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ServeCacheMiss);

void BM_ServeAdmissionShed(benchmark::State& state) {
  // queue_capacity 0 sheds every solve at admission, so the loop measures
  // parse + validation + the deterministic reject, with no solver time.
  serve::ServerOptions options;
  options.queue_capacity = 0;
  serve::Server server(options);
  std::string batch;
  for (int i = 0; i < 64; ++i) batch += std::string(kServeMqoRequest) + "\n";
  for (auto _ : state) {
    std::istringstream in(batch);
    std::ostringstream out;
    benchmark::DoNotOptimize(server.Serve(in, out));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ServeAdmissionShed);

}  // namespace

BENCHMARK_MAIN();
