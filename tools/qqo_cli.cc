// qqo — command-line front end of the library.
//
//   qqo generate mqo <out.json>   [--queries=N] [--ppq=N] [--seed=N]
//   qqo generate join <out.json>  [--relations=N] [--predicates=N] [--seed=N]
//   qqo mqo <workload.json>       [--backend=exact|sa|qaoa|vqe|adiabatic|annealer]
//   qqo join <graph.json>         [--backend=...] [--thresholds=a,b,...]
//                                 [--precision=P]
//   qqo estimate mqo|join <file>  [--device=mumbai|brooklyn]
//   qqo qasm mqo|join <file>      [--algorithm=qaoa|vqe]
//
// Workload file formats are documented in src/io/workload_io.h. All
// external input (flags and files) is validated up front: unknown flags,
// non-numeric or out-of-range values and malformed workload files are
// rejected with a one-line diagnostic and a non-zero exit code — the
// process never aborts on bad input. Exit codes: 0 success, 1 input /
// runtime error, 2 command-line misuse.

#include "qqo_cli.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "circuit/qasm_exporter.h"
#include "common/env.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "core/device_model.h"
#include "core/quantum_optimizer.h"
#include "core/resource_estimator.h"
#include "io/workload_io.h"
#include "mqo/mqo_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qubo/conversions.h"
#include "serve/protocol.h"
#include "transpile/ibm_topologies.h"
#include "variational/qaoa.h"
#include "variational/vqe_ansatz.h"

namespace qopt::cli {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  qqo generate mqo <out.json>  [--queries=N] [--ppq=N] [--seed=N]\n"
      "  qqo generate join <out.json> [--relations=N] [--predicates=N]"
      " [--seed=N] [--topology=random|chain|star|cycle|clique]\n"
      "  qqo mqo <workload.json>      [--backend=exact|sa|qaoa|vqe|adiabatic|annealer]"
      " [--dispatch=serial|race] [--decompose=N] [--seed=N] [--pegasus=M]"
      " [--no-fallback] [--timeout-ms=N] [--retries=N]\n"
      "  qqo join <graph.json>        [--backend=...] [--thresholds=a,b,..]"
      " [--precision=P] [--dispatch=serial|race] [--decompose=N] [--seed=N]"
      " [--pegasus=M] [--no-fallback] [--timeout-ms=N] [--retries=N]\n"
      "  qqo estimate mqo|join <file> [--device=mumbai|brooklyn] [--trials=N]"
      " [--thresholds=a,b,..] [--precision=P]\n"
      "  qqo qasm mqo|join <file>     [--algorithm=qaoa|vqe]"
      " [--thresholds=a,b,..] [--precision=P]\n"
      "global flags (any subcommand):\n"
      "  --trace-out=FILE  write a Chrome trace_event JSON of the run\n"
      "  --metrics         print the metrics table after the run\n"
      "environment: QQO_THREADS=N sizes the thread pool;\n"
      "  QQO_FAULTS=site:after_n:status[,...] arms fault points\n");
  return kExitUsage;
}

/// One-line diagnostic on stderr; returns the exit code for convenience
/// (`return Fail(kExitUsage, status);`).
int Fail(int exit_code, const Status& status) {
  std::fprintf(stderr, "qqo: error: %s\n", status.ToString().c_str());
  return exit_code;
}

std::string FlagOr(const FlagMap& flags, const std::string& key,
                   const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Comma-separated doubles; empty tokens and non-numeric garbage are
/// errors (std::atof would have silently read them as 0).
StatusOr<std::vector<double>> ParseThresholds(const std::string& spec) {
  std::vector<double> thresholds;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(start, comma - start);
    char* parse_end = nullptr;
    const double value = std::strtod(token.c_str(), &parse_end);
    if (token.empty() || parse_end != token.c_str() + token.size() ||
        !std::isfinite(value)) {
      return InvalidArgumentError(StrFormat(
          "flag --thresholds: expected a comma-separated list of numbers, "
          "got \"%s\"",
          spec.c_str()));
    }
    thresholds.push_back(value);
    if (comma == spec.size()) break;
    start = comma + 1;
  }
  return thresholds;
}

/// A solve option's flag: its protocol name with '_' -> '-'.
std::string FlagName(std::string_view option) {
  std::string name(option);
  std::replace(name.begin(), name.end(), '_', '-');
  return name;
}

void AddOptionFlags(std::span<const char* const> options,
                    std::vector<FlagSpec>* specs) {
  for (const char* option : options) {
    specs->push_back({FlagName(option), std::string_view(option) !=
                                            "no_fallback"});
  }
}

/// Text -> integer, then the validator qqo_serve shares, which owns the
/// option's range.
Status SetSolveIntText(std::string_view option, const std::string& text,
                       const std::string& label,
                       serve::SolveRequest* request) {
  QOPT_ASSIGN_OR_RETURN(
      const long long value,
      ParseEnvInt(label, text, std::numeric_limits<long long>::min(),
                  std::numeric_limits<long long>::max()));
  return serve::SetSolveInt(option, value, label, request);
}

/// The CLI's syntax step for one solve option (flag text -> value) in
/// front of the validator it shares with qqo_serve.
Status ApplyOptionFlag(const FlagMap& flags, std::string_view option,
                       serve::SolveRequest* request) {
  const std::string flag = FlagName(option);
  auto it = flags.find(flag);
  if (it == flags.end()) return OkStatus();
  const std::string label = "flag --" + flag;
  if (option == "no_fallback") {
    request->classical_fallback = false;
    return OkStatus();
  }
  if (option == "thresholds") {
    QOPT_ASSIGN_OR_RETURN(request->join_encoder.thresholds,
                          ParseThresholds(it->second));
    return OkStatus();
  }
  if (option == "backend" || option == "dispatch") {
    return serve::SetSolveName(option, it->second, label, request);
  }
  return SetSolveIntText(option, it->second, label, request);
}

/// The default SolveRequest overridden by whichever solve-option flags
/// were given.
StatusOr<serve::SolveRequest> ParseSolveFlags(const FlagMap& flags) {
  serve::SolveRequest request;
  for (const char* option : serve::kSolveOptions) {
    QOPT_RETURN_IF_ERROR(ApplyOptionFlag(flags, option, &request));
  }
  for (const char* option : serve::kJoinOptions) {
    QOPT_RETURN_IF_ERROR(ApplyOptionFlag(flags, option, &request));
  }
  return request;
}

/// Exit code for a failed solve: deadline expiry (and cancellation, its
/// cooperative sibling) gets its own code so scripts can tell "out of
/// time" from "bad input".
int SolveExitCode(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
                 status.code() == StatusCode::kCancelled
             ? kExitDeadline
             : kExitError;
}

void PrintStats(const SolveStats& stats) {
  // attempts (deterministic) goes to stdout with the report; wall-clock
  // timing is a diagnostic and stays off stdout so that report output
  // remains byte-identical at any thread count.
  std::printf("attempts: %d%s\n", stats.attempts,
              stats.timed_out ? " (timed out)" : "");
  if (stats.decompose_rounds > 0) {
    // Round counts and incumbent energies are deterministic (no
    // wall-clock content), so they join the stdout report.
    std::printf("decompose rounds: %d (%d subproblems)\n",
                stats.decompose_rounds, stats.decompose_subproblems);
    std::printf("decompose energies:");
    for (const double energy : stats.decompose_round_energies) {
      std::printf(" %.6g", energy);
    }
    std::printf("\n");
  }
  if (!stats.lanes.empty()) {
    // The lane *set* is deterministic (portfolio of the problem size), so
    // its summary joins the report; per-lane outcome and timing depend on
    // how the race interleaved and stay on stderr with the diagnostics.
    std::printf("race lanes: %d\n", static_cast<int>(stats.lanes.size()));
    for (const RaceLaneStats& lane : stats.lanes) {
      if (lane.incumbent) {
        std::fprintf(stderr,
                     "qqo: race lane %-9s %s%s incumbent %.6g, %.1f ms\n",
                     BackendName(lane.backend).c_str(), lane.outcome.c_str(),
                     lane.won ? " (won)" : ",", lane.incumbent_energy,
                     lane.elapsed_ms);
      } else {
        std::fprintf(stderr, "qqo: race lane %-9s %s, %.1f ms\n",
                     BackendName(lane.backend).c_str(), lane.outcome.c_str(),
                     lane.elapsed_ms);
      }
    }
  }
  std::fprintf(stderr, "qqo: elapsed ms: %.1f\n", stats.elapsed_ms);
}

/// The path positional must not look like a flag (catches
/// `qqo mqo --backend=sa` with the workload file forgotten).
bool LooksLikeFlag(const std::string& arg) {
  return arg.rfind("--", 0) == 0;
}

/// The report of a `qqo mqo|join` solve: the lines both kinds share, then
/// `print_solution` for a solution that decoded.
template <typename SolveReport, typename PrintSolution>
int PrintReport(const StatusOr<SolveReport>& solved, const char* non_solution,
                PrintSolution print_solution) {
  if (!solved.ok()) {
    return Fail(SolveExitCode(solved.status()), solved.status());
  }
  const SolveReport& report = *solved;
  if (report.degraded) {
    std::fprintf(stderr,
                 "qqo: warning: degraded to classical fallback \"%s\": %s\n",
                 BackendName(report.backend_used).c_str(),
                 report.degradation_reason.c_str());
  }
  std::printf("backend: %s%s\nqubits: %d\nquadratic terms: %d\n",
              BackendName(report.backend_used).c_str(),
              report.degraded ? " (degraded)" : "", report.qubits,
              report.quadratic_terms);
  PrintStats(report.stats);
  if (!report.valid) {
    std::printf("result: INVALID (backend returned a %s)\n", non_solution);
    return kExitError;
  }
  print_solution(report.solution);
  return kExitOk;
}

int RunGenerate(const std::vector<std::string>& args) {
  if (args.size() < 4) return Usage();
  const std::string& what = args[2];
  const std::string& path = args[3];
  if (LooksLikeFlag(what) || LooksLikeFlag(path)) return Usage();
  if (what == "mqo") {
    StatusOr<FlagMap> flags =
        ParseFlags(args, 4, {{"queries"}, {"ppq"}, {"seed"}});
    if (!flags.ok()) return Fail(kExitUsage, flags.status());
    MqoGeneratorOptions gen;
    StatusOr<long long> queries = IntFlag(*flags, "queries", 4, 1, 1000);
    if (!queries.ok()) return Fail(kExitUsage, queries.status());
    gen.num_queries = static_cast<int>(*queries);
    StatusOr<long long> ppq = IntFlag(*flags, "ppq", 4, 1, 1000);
    if (!ppq.ok()) return Fail(kExitUsage, ppq.status());
    gen.plans_per_query = static_cast<int>(*ppq);
    StatusOr<long long> seed = IntFlag(*flags, "seed", 1, 0, serve::kMaxSeed);
    if (!seed.ok()) return Fail(kExitUsage, seed.status());
    gen.seed = static_cast<std::uint64_t>(*seed);
    const MqoProblem problem = GenerateMqoProblem(gen);
    if (const Status saved = SaveMqoProblem(problem, path); !saved.ok()) {
      return Fail(kExitError, saved);
    }
    std::printf("wrote MQO workload: %d queries, %d plans, %d savings -> %s\n",
                problem.NumQueries(), problem.NumPlans(),
                problem.NumSavings(), path.c_str());
    return kExitOk;
  }
  if (what == "join") {
    StatusOr<FlagMap> flags = ParseFlags(
        args, 4, {{"relations"}, {"predicates"}, {"seed"}, {"topology"}});
    if (!flags.ok()) return Fail(kExitUsage, flags.status());
    const std::string topology = FlagOr(*flags, "topology", "random");
    if (topology != "random" && topology != "chain" && topology != "star" &&
        topology != "cycle" && topology != "clique") {
      return Fail(kExitUsage,
                  InvalidArgumentError(StrFormat(
                      "unknown --topology \"%s\"; expected random, chain, "
                      "star, cycle, or clique",
                      topology.c_str())));
    }
    StatusOr<long long> relations_flag =
        IntFlag(*flags, "relations", 5, 2, 1000);
    if (!relations_flag.ok()) return Fail(kExitUsage, relations_flag.status());
    const int relations = static_cast<int>(*relations_flag);
    StatusOr<long long> seed_flag =
        IntFlag(*flags, "seed", 1, 0, serve::kMaxSeed);
    if (!seed_flag.ok()) return Fail(kExitUsage, seed_flag.status());
    const std::uint64_t seed = static_cast<std::uint64_t>(*seed_flag);
    if (topology != "random" && flags->count("predicates") > 0) {
      return Fail(kExitUsage,
                  InvalidArgumentError(StrFormat(
                      "--predicates only applies to --topology=random; "
                      "topology \"%s\" fixes the predicate set",
                      topology.c_str())));
    }
    QueryGraph graph({1.0});
    if (topology == "random") {
      QueryGeneratorOptions gen;
      gen.num_relations = relations;
      StatusOr<long long> predicates =
          IntFlag(*flags, "predicates", relations - 1, relations - 1,
                  relations * (relations - 1) / 2);
      if (!predicates.ok()) return Fail(kExitUsage, predicates.status());
      gen.num_predicates = static_cast<int>(*predicates);
      gen.cardinality_min = 10.0;
      gen.cardinality_max = 100000.0;
      gen.selectivity_min = 0.001;
      gen.seed = seed;
      graph = GenerateRandomQuery(gen);
    } else {
      // Fixed-topology stressors for the decomposition sweeps share one
      // uniform cardinality and selectivity so the shape, not the weights,
      // drives the QUBO structure.
      const double cardinality = 1000.0;
      const double selectivity = 0.1;
      if (topology == "chain") {
        graph = GenerateChainQuery(relations, cardinality, selectivity, seed);
      } else if (topology == "star") {
        graph = GenerateStarQuery(relations, cardinality, selectivity, seed);
      } else if (topology == "cycle") {
        graph = GenerateCycleQuery(relations, cardinality, selectivity, seed);
      } else {
        graph = GenerateCliqueQuery(relations, cardinality, selectivity, seed);
      }
    }
    if (const Status saved = SaveQueryGraph(graph, path); !saved.ok()) {
      return Fail(kExitError, saved);
    }
    std::printf("wrote query graph: %d relations, %d predicates -> %s\n",
                graph.NumRelations(), graph.NumPredicates(), path.c_str());
    return kExitOk;
  }
  return Usage();
}

/// `qqo mqo|join <file>`: flags -> SolveRequest -> the options builder
/// qqo_serve uses, so a solve means the same on either front end.
int RunSolve(const std::vector<std::string>& args) {
  if (args.size() < 3 || LooksLikeFlag(args[2])) return Usage();
  const bool join = args[1] == "join";
  std::vector<FlagSpec> specs;
  AddOptionFlags(serve::kSolveOptions, &specs);
  if (join) AddOptionFlags(serve::kJoinOptions, &specs);
  StatusOr<FlagMap> flags = ParseFlags(args, 3, specs);
  if (!flags.ok()) return Fail(kExitUsage, flags.status());
  // Validate every flag value before touching the file: a usage error is
  // diagnosed the same way whether or not the workload path exists.
  StatusOr<serve::SolveRequest> request = ParseSolveFlags(*flags);
  if (!request.ok()) return Fail(kExitUsage, request.status());
  const OptimizerOptions options =
      serve::MakeOptimizerOptions(*request, serve::SolveDeadline(*request));
  if (join) {
    StatusOr<QueryGraph> graph = LoadQueryGraph(args[2]);
    if (!graph.ok()) return Fail(kExitError, graph.status());
    return PrintReport(
        TrySolveJoinOrder(*graph, request->join_encoder, options),
        "non-permutation", [](const JoinOrderSolution& solution) {
          std::printf("C_out cost: %.6g\norder:", solution.cost);
          for (int r : solution.order) std::printf(" R%d", r);
          std::printf("\n");
        });
  }
  StatusOr<MqoProblem> problem = LoadMqoProblem(args[2]);
  if (!problem.ok()) return Fail(kExitError, problem.status());
  return PrintReport(
      TrySolveMqo(*problem, options), "non-selection",
      [](const MqoSolution& solution) {
        std::printf("cost: %.6g\nselection (query: plan):", solution.cost);
        for (std::size_t q = 0; q < solution.selection.size(); ++q) {
          std::printf(" %d:%d", static_cast<int>(q), solution.selection[q]);
        }
        std::printf("\n");
      });
}

StatusOr<QuboModel> LoadAsQubo(const std::string& what,
                               const std::string& path,
                               const JoinOrderEncoderOptions& encoder) {
  if (what == "mqo") {
    QOPT_ASSIGN_OR_RETURN(const MqoProblem problem, LoadMqoProblem(path));
    QOPT_ASSIGN_OR_RETURN(EncodedProblem<MqoSolution> encoded,
                          EncodeMqoProblem(problem));
    return std::move(encoded.qubo);
  }
  if (what == "join") {
    QOPT_ASSIGN_OR_RETURN(const QueryGraph graph, LoadQueryGraph(path));
    QOPT_ASSIGN_OR_RETURN(EncodedProblem<JoinOrderSolution> encoded,
                          EncodeJoinOrderProblem(graph, encoder));
    return std::move(encoded.qubo);
  }
  return InvalidArgumentError(
      StrFormat("unknown workload kind \"%s\" (known: mqo, join)",
                what.c_str()));
}

/// `qqo estimate|qasm` flags: `own` plus the join encoder's, which parse
/// like a solve's into `encoder`.
StatusOr<FlagMap> ParseQuboFlags(const std::vector<std::string>& args,
                                 std::vector<FlagSpec> own,
                                 JoinOrderEncoderOptions* encoder) {
  AddOptionFlags(serve::kJoinOptions, &own);
  QOPT_ASSIGN_OR_RETURN(FlagMap flags, ParseFlags(args, 4, own));
  QOPT_ASSIGN_OR_RETURN(const serve::SolveRequest request,
                        ParseSolveFlags(flags));
  *encoder = request.join_encoder;
  return flags;
}

int RunEstimate(const std::vector<std::string>& args) {
  if (args.size() < 4 || LooksLikeFlag(args[2]) || LooksLikeFlag(args[3])) {
    return Usage();
  }
  JoinOrderEncoderOptions encoder;
  StatusOr<FlagMap> flags =
      ParseQuboFlags(args, {{"device"}, {"trials"}}, &encoder);
  if (!flags.ok()) return Fail(kExitUsage, flags.status());
  StatusOr<QuboModel> qubo = LoadAsQubo(args[2], args[3], encoder);
  if (!qubo.ok()) return Fail(kExitError, qubo.status());
  const std::string device_name = FlagOr(*flags, "device", "mumbai");
  if (device_name != "mumbai" && device_name != "brooklyn") {
    return Fail(kExitUsage,
                InvalidArgumentError(StrFormat(
                    "unknown device \"%s\" (known: mumbai, brooklyn)",
                    device_name.c_str())));
  }
  const DeviceModel device =
      device_name == "brooklyn" ? BrooklynDevice() : MumbaiDevice();
  const CouplingMap coupling =
      device_name == "brooklyn" ? MakeBrooklyn65() : MakeMumbai27();
  GateEstimateOptions options;
  StatusOr<long long> trials = IntFlag(*flags, "trials", 10, 1, 1000);
  if (!trials.ok()) return Fail(kExitUsage, trials.status());
  options.transpile_trials = static_cast<int>(*trials);
  const StatusOr<GateResourceEstimate> estimated =
      EstimateGateResources(*qubo, coupling, device, options);
  if (!estimated.ok()) return Fail(kExitError, estimated.status());
  const GateResourceEstimate& estimate = *estimated;
  std::printf("device: %s (max reliable depth %d)\n", device.name.c_str(),
              estimate.max_reliable_depth);
  std::printf("logical qubits: %d (device offers %d)\n",
              estimate.logical_qubits, device.num_qubits);
  std::printf("quadratic terms: %d\n", estimate.quadratic_terms);
  std::printf("QAOA depth: %d ideal, %.1f routed -> %s\n",
              estimate.qaoa_depth_ideal, estimate.qaoa_depth_device,
              estimate.qaoa_within_coherence ? "within coherence"
                                             : "EXCEEDS coherence");
  std::printf("VQE depth:  %d ideal, %.1f routed -> %s\n",
              estimate.vqe_depth_ideal, estimate.vqe_depth_device,
              estimate.vqe_within_coherence ? "within coherence"
                                            : "EXCEEDS coherence");
  return kExitOk;
}

int RunQasm(const std::vector<std::string>& args) {
  if (args.size() < 4 || LooksLikeFlag(args[2]) || LooksLikeFlag(args[3])) {
    return Usage();
  }
  JoinOrderEncoderOptions encoder;
  StatusOr<FlagMap> flags = ParseQuboFlags(args, {{"algorithm"}}, &encoder);
  if (!flags.ok()) return Fail(kExitUsage, flags.status());
  StatusOr<QuboModel> qubo = LoadAsQubo(args[2], args[3], encoder);
  if (!qubo.ok()) return Fail(kExitError, qubo.status());
  const std::string algorithm = FlagOr(*flags, "algorithm", "qaoa");
  if (algorithm != "qaoa" && algorithm != "vqe") {
    return Fail(kExitUsage,
                InvalidArgumentError(StrFormat(
                    "unknown algorithm \"%s\" (known: qaoa, vqe)",
                    algorithm.c_str())));
  }
  const bool qaoa = algorithm == "qaoa";
  const Status size = CheckTemplateGates(
      qaoa ? "QAOA" : "VQE",
      qaoa ? QaoaTemplateGateCount(qubo->NumVariables(),
                                   qubo->NumQuadraticTerms())
           : VqeTemplateGateCount(qubo->NumVariables()));
  if (!size.ok()) return Fail(kExitError, size);
  const QuantumCircuit circuit = qaoa
                                     ? BuildQaoaTemplate(QuboToIsing(*qubo))
                                     : BuildVqeTemplate(qubo->NumVariables());
  std::fputs(ToQasm2(circuit, /*measure_all=*/true).c_str(), stdout);
  return kExitOk;
}

int Dispatch(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  const std::string& command = args[1];
  if (command == "generate") return RunGenerate(args);
  if (command == "mqo" || command == "join") return RunSolve(args);
  if (command == "estimate") return RunEstimate(args);
  if (command == "qasm") return RunQasm(args);
  std::fprintf(stderr, "qqo: error: unknown command \"%s\"\n",
               command.c_str());
  return Usage();
}

/// Emits the metrics tables after a --metrics run. Stable metrics are part
/// of the deterministic report and go to stdout; scheduling-class metrics
/// (threadpool.*) legitimately vary with QQO_THREADS and stay on stderr,
/// keeping stdout byte-identical at any thread count.
void PrintMetricsTables() {
  const obs::Metrics& metrics = obs::Metrics::Instance();
  std::fputs(metrics.TableString(/*include_scheduling=*/false).c_str(),
             stdout);
  TablePrinter scheduling({"metric (scheduling)", "count", "value"});
  bool any = false;
  for (const obs::Metrics::Row& row :
       metrics.Snapshot(/*include_scheduling=*/true)) {
    if (!row.scheduling) continue;
    any = true;
    scheduling.AddRow({row.name, StrFormat("%lld", row.count),
                       StrFormat("%lld", row.sum)});
  }
  if (any) scheduling.Print(stderr);
}

}  // namespace

int RunQqoCli(int argc, const char* const* argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) args.emplace_back(argv[i]);
  return RunQqoCli(args);
}

int RunQqoCli(const std::vector<std::string>& args) {
  // Environment knobs are validated before any work runs: a typo in
  // QQO_THREADS or QQO_FAULTS is command-line misuse (exit 2), never a
  // silent fallback to defaults.
  if (const Status env = serve::CheckSolveEnvironment(); !env.ok()) {
    return Fail(kExitUsage, env);
  }

  // The observability flags are global: strip them here so every
  // subcommand accepts them without widening its own allowlist.
  std::string trace_out;
  bool want_metrics = false;
  std::vector<std::string> rest;
  rest.reserve(args.size());
  for (const std::string& arg : args) {
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::string("--trace-out=").size());
      if (trace_out.empty()) {
        return Fail(kExitUsage, InvalidArgumentError(
                                    "flag --trace-out: expected a file path"));
      }
      continue;
    }
    if (arg == "--trace-out") {
      return Fail(kExitUsage,
                  InvalidArgumentError("flag --trace-out: expected =FILE"));
    }
    if (arg == "--metrics") {
      want_metrics = true;
      continue;
    }
    rest.push_back(arg);
  }

  if (!trace_out.empty()) {
    obs::Tracer::Instance().Reset();
    obs::Tracer::Instance().Enable();
  }
  if (want_metrics) {
    obs::Metrics::Instance().Reset();
    obs::Metrics::Instance().Enable();
  }

  int code = Dispatch(rest);

  if (!trace_out.empty()) {
    obs::Tracer::Instance().Disable();
    const std::string trace_json =
        obs::Tracer::Instance().ChromeTraceJson().Dump(1);
    if (!WriteStringToFile(trace_out, trace_json)) {
      const Status failed = InternalError(
          StrFormat("cannot write trace file \"%s\"", trace_out.c_str()));
      if (code == kExitOk) code = kExitError;
      Fail(code, failed);
    } else {
      std::fprintf(stderr, "qqo: trace written to %s\n", trace_out.c_str());
    }
  }
  if (want_metrics) {
    obs::Metrics::Instance().Disable();
    PrintMetricsTables();
  }
  return code;
}

}  // namespace qopt::cli
