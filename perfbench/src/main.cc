// End-to-end solve benchmark with per-layer attribution.
//
//   qqo_perfbench --workload small_quantum|large_decompose
//                 --seed N --seconds S --trace 0|1 [--digest-only]
//                 [--span-file PATH]
//
// Prints a human-readable report and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 0
// when the run completed (correctness is reported, not signalled).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "pipeline.h"
#include "serve_loop.h"
#include "spans.h"
#include "util.h"

namespace perfbench {
namespace {

/// Set-ups timed before the measured loop, and spread through it.
constexpr int kSetupsBefore = 7;
constexpr int kSetupsDuring = 24;
/// Cache capacity of the Server each set-up builds.
constexpr std::size_t kSetupCacheCapacity = 128;

double Share(long long part, long long whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool digest_only = false;
  std::string span_file;
};

/// What a run hands back to main: the JSON metrics plus everything else
/// printed for humans.
struct Outcome {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  MetricSet json;    ///< Exactly the BENCHMARK.json metrics of this mode.
  MetricSet extra;   ///< Every other figure, printed with its unit.
  std::string digest;
  std::vector<std::string> notes;
};

struct LayerRow {
  const char* name;
  const char* unit;
  enum Agg { kMean, kMedian } agg;
};
const LayerRow kLayerRows[] = {
    {"mqo.encode_ms", "ms", LayerRow::kMean},
    {"joinorder.encode_ms", "ms", LayerRow::kMean},
    {"bilp.to_qubo_ms", "ms", LayerRow::kMean},
    {"mqo.decode_ms", "ms", LayerRow::kMean},
    {"joinorder.decode_ms", "ms", LayerRow::kMean},
    {"qubo.vars", "count", LayerRow::kMedian},
    {"qubo.quadratic_terms", "count", LayerRow::kMedian},
    {"qubo.exact_ms", "ms", LayerRow::kMean},
    {"qubo.canonical_us", "us", LayerRow::kMean},
    {"anneal.sa_ms", "ms", LayerRow::kMean},
    {"anneal.annealer_ms", "ms", LayerRow::kMean},
    {"anneal.embed_ms", "ms", LayerRow::kMean},
    {"anneal.physical_qubits", "count", LayerRow::kMedian},
    {"variational.qaoa_ms", "ms", LayerRow::kMean},
    {"variational.evaluations", "count", LayerRow::kMean},
    {"circuit.ms_per_evaluation", "ms", LayerRow::kMean},
    {"circuit.bytes_per_evaluation", "B", LayerRow::kMean},
    {"serve.parse_us", "us", LayerRow::kMean},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--digest-only") {
      args->digest_only = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::string(v) == "1";
    } else if (flag == "--span-file") {
      args->span_file = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Times set-ups: io load of every instance, a Server, a pool warm-up.
/// One set-up takes a millisecond or two, a snapshot of the host's speed at
/// that moment, so the samples are spread over the whole run (see Spread)
/// and the median is reported.
class SetupTimer {
 public:
  explicit SetupTimer(const std::vector<Instance>& generated)
      : generated_(generated) {}

  /// One timed set-up; hands back its loaded instances and Server.
  qopt::Status Sample(std::vector<Instance>* loaded,
                      std::unique_ptr<qopt::serve::Server>* server) {
    std::vector<Instance> instances = generated_;
    const double start = NowMs();
    const qopt::Status status = LoadInstances(&instances);
    parse_ms_.push_back(NowMs() - start);
    std::unique_ptr<qopt::serve::Server> built =
        MakeServer(kSetupCacheCapacity, false);
    qopt::ThreadPool& pool = qopt::ThreadPool::Default();
    pool.ParallelFor(static_cast<std::size_t>(4 * pool.NumThreads()),
                     [](std::size_t) {});
    setup_s_.push_back((NowMs() - start) / 1000.0);
    host_ms_.push_back(HostReferenceMs());
    *loaded = std::move(instances);
    *server = std::move(built);
    return status;
  }

  /// Untimed-result samples: `count` set-ups whose outputs are dropped.
  void Spread(int count) {
    std::vector<Instance> instances;
    std::unique_ptr<qopt::serve::Server> server;
    for (int i = 0; i < count; ++i) (void)Sample(&instances, &server);
  }

  double MedianSeconds() const { return Median(setup_s_); }
  double MedianParseMs() const { return Median(parse_ms_); }
  double MedianHostMs() const { return Median(host_ms_); }
  std::string Note() const {
    return "median of " + std::to_string(setup_s_.size()) +
           " set-ups spread over the run: io load, Server, pool warm-up";
  }

 private:
  const std::vector<Instance> generated_;
  std::vector<double> setup_s_;
  std::vector<double> parse_ms_;
  std::vector<double> host_ms_;
};

void SetLayerRow(const LayerRow& row, const LayerCounters& workload,
                 const LayerCounters& probe, MetricSet* out) {
  const LayerCounters* source = &workload;
  std::string note = "workload";
  if (workload.samples.count(row.name) == 0) {
    source = &probe;
    note = "paper-example probe (layer idle on this workload)";
  }
  const auto it = source->samples.find(row.name);
  double value = 0.0;
  if (it != source->samples.end()) {
    value = row.agg == LayerRow::kMedian ? Median(it->second)
                                         : Mean(it->second);
    note += ", n=" + std::to_string(it->second.size());
  } else {
    note = "not exercised";
  }
  out->Set(row.name, value, row.unit, note);
}

double SumOf(const LayerCounters& c, const std::string& row) {
  const auto it = c.samples.find(row);
  double sum = 0.0;
  if (it != c.samples.end()) {
    for (double v : it->second) sum += v;
  }
  return sum;
}

/// Rows derived from counters that need more than a mean.
void SetDerivedRows(const LayerCounters& workload, const LayerCounters& probe,
                    MetricSet* out) {
  const LayerCounters& sa =
      workload.samples.count("anneal.sa_ms") ? workload : probe;
  const double sa_s = SumOf(sa, "anneal.sa_ms") / 1000.0;
  out->Set("anneal.spin_updates_per_s",
           sa_s > 0 ? SumOf(sa, "anneal.spin_updates") / sa_s : 0.0, "1/s",
           "computed: reads x sweeps x variables over measured anneal.sa_ms");
  const LayerCounters& embed =
      workload.samples.count("anneal.embed_success") ? workload : probe;
  const auto it = embed.samples.find("anneal.embed_success");
  out->Set("anneal.embed_success_share",
           it == embed.samples.end() ? 0.0 : Mean(it->second), "share",
           &embed == &workload ? "workload" : "paper-example probe");
}

/// Distribution of QUBO sizes over the solved problems.
void SetSizeRows(const std::vector<double>& vars,
                 const std::vector<double>& terms, MetricSet* out) {
  for (double q : {50.0, 90.0, 100.0}) {
    const std::string suffix =
        q == 100.0 ? "max" : "p" + std::to_string(static_cast<int>(q));
    out->Set("qubits_" + suffix, Percentile(vars, q), "count");
    out->Set("quadratic_terms_" + suffix, Percentile(terms, q), "count");
  }
}

/// Where the traced solves' wall time went: each pipeline layer's wall
/// attribution per solve, plus the facade's own dispatch time, against the
/// untraced facade time of the same solves.
std::string AttributionNote(const std::vector<Span>& spans,
                            double dispatch_self_ms, long long solves,
                            double untraced_mean_ms) {
  const double per_solve = 1.0 / static_cast<double>(std::max(1LL, solves));
  double accounted = dispatch_self_ms;
  double harness = 0.0;
  std::string table;
  for (const auto& [name, ms] : WallAttribution(spans)) {
    if (name == "core.facade") continue;
    // The pipeline root's own time is the benchmark's bookkeeping between
    // layer calls, not a layer of the program.
    if (name == "pipeline") {
      harness = ms * per_solve;
      continue;
    }
    accounted += ms * per_solve;
    table += "    " + name + " " + JsonNumber(ms * per_solve) + " ms\n";
  }
  return "attribution per traced solve (wall ms):\n" + table +
         "    core.dispatch_self " + JsonNumber(dispatch_self_ms) +
         " ms\n    accounted " + JsonNumber(accounted) +
         " ms vs untraced facade mean " + JsonNumber(untraced_mean_ms) +
         " ms (benchmark bookkeeping between calls: " + JsonNumber(harness) +
         " ms)";
}

/// Library tracer span totals (ms) by site, recorded while obs::Tracer was
/// armed around traced facade calls; resets the tracer.
using TracerTotals = std::map<std::string, double>;
TracerTotals CollectTracer() {
  const qopt::JsonValue trace = qopt::obs::Tracer::Instance().ChromeTraceJson();
  TracerTotals total_ms;
  if (const qopt::JsonValue* events = trace.Find("traceEvents")) {
    for (std::size_t i = 0; i < events->Size(); ++i) {
      const qopt::JsonValue& e = events->At(i);
      total_ms[e.Find("name")->AsString()] +=
          e.Find("dur")->AsNumber() / 1000.0;
    }
  }
  qopt::obs::Tracer::Instance().Reset();
  return total_ms;
}

/// Dispatch-internal paths as per-solve rows; a path the workload never
/// reached comes from the paper-example probe.
void SetTracerRows(const TracerTotals& workload, long long workload_calls,
                   const TracerTotals& probe, long long probe_calls,
                   MetricSet* out) {
  for (const char* site : {"solve.attempt", "race.lane", "decompose.round",
                           "decompose.refine", "anneal.read"}) {
    const auto it = workload.find(site);
    const bool own = it != workload.end() && it->second > 0;
    const auto p = probe.find(site);
    const double total = own ? it->second : p == probe.end() ? 0.0 : p->second;
    const long long calls = own ? workload_calls : probe_calls;
    out->Set(std::string("obs.") + site + "_ms",
             calls > 0 ? total / static_cast<double>(calls) : 0.0, "ms",
             std::string("library tracer span total per traced solve, ") +
                 (own ? "workload" : "paper-example probe"));
  }
}

/// Facade statistics rows (attempts, degradation, racing, decomposition).
struct FacadeTally {
  long long solves = 0, attempts = 0, degraded = 0, timed_out = 0;
  long long lanes = 0, won = 0, raced = 0;
  long long rounds = 0, subproblems = 0, decomposed = 0;
  double decomposed_ms = 0.0;
  void Add(const SolveResult& r) {
    ++solves;
    attempts += r.stats.attempts;
    degraded += r.degraded;
    timed_out += r.stats.timed_out;
    if (!r.stats.lanes.empty()) {
      ++raced;
      lanes += static_cast<long long>(r.stats.lanes.size());
      for (const auto& lane : r.stats.lanes) won += lane.won;
    }
    if (r.stats.decompose_rounds > 0) {
      ++decomposed;
      rounds += r.stats.decompose_rounds;
      subproblems += r.stats.decompose_subproblems;
      decomposed_ms += r.wall_ms;
    }
  }
};

void SetFacadeRows(const FacadeTally& w, const FacadeTally& probe,
                   MetricSet* out) {
  out->Set("core.attempts_per_solve", Share(w.attempts, w.solves), "count");
  out->Set("core.degraded_share", Share(w.degraded, w.solves), "share");
  out->Set("core.timed_out_share", Share(w.timed_out, w.solves), "share");
  const FacadeTally& race = w.raced > 0 ? w : probe;
  const std::string race_note =
      w.raced > 0 ? "workload" : "paper-example probe";
  out->Set("core.race_lanes_per_solve", Share(race.lanes, race.raced), "count",
           race_note);
  out->Set("core.race_useful_share", Share(race.won, race.lanes), "share",
           race_note);
  const FacadeTally& dec = w.decomposed > 0 ? w : probe;
  const std::string dec_note =
      w.decomposed > 0 ? "workload" : "paper-example probe";
  out->Set("decompose.rounds", Share(dec.rounds, dec.decomposed), "count",
           dec_note + ", per decomposed solve");
  out->Set("decompose.subproblems", Share(dec.subproblems, dec.decomposed),
           "count", dec_note + ", per decomposed solve");
  out->Set("decompose.subproblems_per_s",
           dec.decomposed_ms > 0 ? static_cast<double>(dec.subproblems) /
                                       (dec.decomposed_ms / 1000.0)
                                 : 0.0,
           "1/s", dec_note);
}

/// Probe solves of the paper examples that reach every layer a workload
/// may leave idle: QAOA, the annealer (embedding), exact, a raced and a
/// decomposed SA solve, and a join.
struct ProbeOp {
  int instance;
  qopt::Backend backend;
  qopt::DispatchMode dispatch;
  int decompose;
};

long long RunPaperProbe(std::uint64_t seed, LayerCounters* counters,
                        FacadeTally* tally) {
  std::vector<Instance> paper = PaperExamples(1000);
  if (!LoadInstances(&paper).ok()) return 0;
  ComputeReferences(&paper);
  SolveWorkload probe = MakeSmallQuantum(seed);
  probe.options.anneal.num_reads = 4;
  probe.options.anneal.num_sweeps = 200;
  const ProbeOp ops[] = {
      {0, qopt::Backend::kQaoa, qopt::DispatchMode::kSerial, 0},
      {0, qopt::Backend::kAnnealerEmulation, qopt::DispatchMode::kSerial, 0},
      {0, qopt::Backend::kExact, qopt::DispatchMode::kSerial, 0},
      {0, qopt::Backend::kSimulatedAnnealing, qopt::DispatchMode::kRace, 0},
      {0, qopt::Backend::kSimulatedAnnealing, qopt::DispatchMode::kSerial, 4},
      {1, qopt::Backend::kSimulatedAnnealing, qopt::DispatchMode::kSerial, 0},
  };
  for (const Instance& instance : paper) {
    ProbeLayers(instance, EncodeForChecks(instance, probe.encoder),
                probe.options, true, true, counters);
  }
  for (const ProbeOp& op : ops) {
    qopt::OptimizerOptions options = probe.options;
    options.backend = op.backend;
    options.dispatch = op.dispatch;
    options.decompose = op.decompose;
    options.seed = seed + 7;
    const Instance& instance = paper[static_cast<std::size_t>(op.instance)];
    tally->Add(SolveAndCheck(instance, probe.encoder, options, true));
    TracedSolve(instance, probe.encoder, options, true, nullptr, counters);
  }
  return static_cast<long long>(std::size(ops));
}

/// The serve-layer rows: cache, admission and queue-wait figures of one
/// traced serve run.
void SetServeRows(const ServeRun& run, const qopt::serve::Server& server,
                  const std::string& note, MetricSet* out) {
  const qopt::serve::CacheCounters cache = server.Cache().Counters();
  const qopt::serve::ServerCounters counters = server.Counters();
  out->Set("serve.queue_wait_ms_p50", Percentile(run.queue_wait_ms, 50), "ms",
           note + ", n=" + std::to_string(run.queue_wait_ms.size()));
  out->Set("serve.queue_wait_ms_p99", Percentile(run.queue_wait_ms, 99), "ms",
           note);
  out->Set("serve.cache_hit_share", Share(run.cached, run.cacheable), "share",
           note);
  out->Set("serve.cache_hits_exact", static_cast<double>(cache.hits_exact),
           "count", note);
  out->Set("serve.cache_hits_isomorphic",
           static_cast<double>(cache.hits_isomorphic), "count", note);
  out->Set("serve.cache_evictions", static_cast<double>(cache.evictions),
           "count", note);
  out->Set("serve.cache_rejections", static_cast<double>(cache.rejections),
           "count", note);
  out->Set("serve.shed", static_cast<double>(counters.shed), "count", note);
  out->Set("serve.parse_errors", static_cast<double>(counters.parse_errors),
           "count", note);
}

/// A short open-loop session of the serve mix, so the traced run reports
/// the serve-layer rows (`layer`). The probe's latency goes to the
/// outcome's other figures, and a failed check makes the run incorrect.
ServeRun RunServeProbe(std::uint64_t seed, MetricSet* layer,
                       Outcome* outcome) {
  ServeWorkload probe = MakeServeStream(seed);
  (void)LoadInstances(&probe.instances);
  ComputeReferences(&probe.instances);
  const double seconds = 3.0;
  std::unique_ptr<qopt::serve::Server> server =
      MakeServer(probe.cache_capacity, true);
  const std::vector<ServeLine> lines =
      MakeServeLines(probe, seed, ServeLineCount(probe, seed, seconds));
  ServeRun run = RunServeStream(probe, lines, server.get(), seed, seconds);
  const std::string note = "serve probe, " + JsonNumber(probe.rate) +
                           " req/s for " + JsonNumber(seconds) + " s";
  SetServeRows(run, *server, note, layer);
  outcome->extra.Set("serve_ms_p50", Percentile(run.latency_ms, 50), "ms",
                     note);
  outcome->extra.Set("serve_ms_p99", Percentile(run.latency_ms, 99), "ms",
                     note + ", n=" + std::to_string(run.latency_ms.size()));
  std::set<int> seen;
  long long solves = 0, repeats = 0;
  for (const ServeLine& line : lines) {
    if (line.type != ServeLine::Type::kSolve) continue;
    ++solves;
    repeats += !seen.insert(line.key).second;
  }
  outcome->extra.Set("serve_repeat_share", Share(repeats, solves), "share",
                     "solve requests whose cache key was sent before");
  outcome->extra.Set("serve_hit_share", Share(run.cached, run.cacheable),
                     "share", "cached responses over cache:true solves");
  outcome->notes.push_back("serve probe generator: " + probe.params);
  if (run.failed > 0) {
    outcome->correct = false;
    for (const std::string& e : run.errors) outcome->notes.push_back(e);
  }
  return run;
}

/// Accumulates the traced facade-vs-pipeline calls of one run.
struct TracedRun {
  SpanRecorder recorder;
  LayerCounters counters;
  FacadeTally tally;  ///< Facade statistics of the workload's solves.
  std::vector<double> dispatch_self;
  double traced_sum = 0.0, untraced_sum = 0.0;
  long long calls = 0, replica_matches = 0;

  void Add(const LayerCall& call) {
    dispatch_self.push_back(call.facade_ms - call.encode_ms - call.kernel_ms -
                            call.decode_ms);
    traced_sum += call.facade_ms;
    untraced_sum += call.untraced_ms;
    ++calls;
    replica_matches += call.replica_matches;
  }
};

/// The per-layer rows every traced run reports besides the serve rows:
/// layer timings (falling back to the paper-example probe for idle layers),
/// facade statistics, library tracer paths, overhead and sender lateness.
/// Also adds the attribution note and writes the span file.
void FinishTracedRun(TracedRun& run, const Args& args, double parse_ms,
                     const std::vector<double>& late_ms,
                     const std::string& late_note, Outcome* outcome,
                     MetricSet* layer) {
  const TracerTotals workload_tracer = CollectTracer();
  LayerCounters probe_counters;
  FacadeTally probe_tally;
  const long long probe_calls =
      RunPaperProbe(args.seed, &probe_counters, &probe_tally);
  const TracerTotals probe_tracer = CollectTracer();

  layer->Set("io.parse_ms", parse_ms, "ms",
             "io load of all instances, median over set-ups");
  for (const LayerRow& row : kLayerRows) {
    SetLayerRow(row, run.counters, probe_counters, layer);
  }
  SetDerivedRows(run.counters, probe_counters, layer);
  layer->Set("core.dispatch_self_ms", Mean(run.dispatch_self), "ms",
             "facade wall minus standalone encode+kernel+decode, mean");
  SetFacadeRows(run.tally, probe_tally, layer);
  SetTracerRows(workload_tracer, run.calls, probe_tracer, probe_calls, layer);
  layer->Set("obs.trace_overhead_share",
             run.untraced_sum > 0 ? run.traced_sum / run.untraced_sum - 1.0
                                  : 0.0,
             "share", "traced over untraced facade calls, paired per solve");
  layer->Set("bench.gen_late_ms_p99", Percentile(late_ms, 99), "ms",
             late_note);
  layer->Set("bench.replica_match_share",
             Share(run.replica_matches, run.calls), "share",
             "standalone kernel reproduced the facade's bits");

  const std::vector<Span> spans = run.recorder.Spans();
  outcome->notes.push_back(AttributionNote(
      spans, Mean(run.dispatch_self), run.calls,
      run.untraced_sum / static_cast<double>(std::max(1LL, run.calls))));
  if (!args.span_file.empty() &&
      !WriteSpanFile(args.span_file, spans, AggregateLayers(spans))) {
    outcome->notes.push_back("could not write " + args.span_file);
  }
}

// ---------------------------------------------------------------------------

Outcome RunSolveWorkload(const Args& args) {
  Outcome outcome;
  SolveWorkload w = args.workload == "small_quantum"
                        ? MakeSmallQuantum(args.seed)
                        : MakeLargeDecompose(args.seed);
  SetupTimer setup(w.instances);
  {
    std::vector<Instance> instances;
    std::unique_ptr<qopt::serve::Server> server;
    const qopt::Status loaded = setup.Sample(&instances, &server);
    if (!loaded.ok()) {
      outcome.correct = false;
      outcome.notes.push_back("io load failed: " + loaded.ToString());
    }
    w.instances = std::move(instances);
    setup.Spread(kSetupsBefore - 1);
  }
  ComputeReferences(&w.instances);

  // Closed loop, one solve in flight, whole cycles until time is up. The
  // first cycle checks each report against the benchmark's own encoding,
  // built after the solve and dropped before the next, so the process
  // never holds more than one; later cycles must repeat the first's
  // reports exactly.
  std::vector<std::string> first_digests;
  std::vector<std::vector<double>> wall_by_op(w.ops.size());
  std::vector<double> wall, ratios, qubits, terms;
  long long valid = 0;
  FacadeTally tally;
  Digest workload_digest;
  // The traced run spends a quarter of its time untraced (cycle-1 digest
  // and checks), a quarter traced, then probes the idle layers.
  const double budget_ms =
      1000.0 * args.seconds * (args.trace ? 0.25 : 1.0);
  const double start = NowMs();
  const double setup_every_ms = budget_ms / kSetupsDuring;
  double next_setup_ms = start + setup_every_ms;
  int cycles = 0;
  do {
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      if (!args.digest_only && NowMs() >= next_setup_ms) {
        setup.Spread(1);
        next_setup_ms += setup_every_ms;
      }
      const SolveOp& op = w.ops[i];
      const auto index = static_cast<std::size_t>(op.instance);
      const Instance& instance = w.instances[index];
      SolveResult r =
          SolveAndCheck(instance, w.encoder, OptionsFor(w, op), cycles == 0);
      ++outcome.attempted;
      if (cycles == 0) {
        first_digests.push_back(r.digest);
        workload_digest.Add(r.digest);
        qubits.push_back(r.qubits);
        terms.push_back(r.quadratic_terms);
      } else if (r.digest != first_digests[i]) {
        r.ok = false;
        r.error = "report differs from the first cycle's (nondeterminism)";
      }
      if (!r.ok) {
        ++outcome.failed;
        if (outcome.notes.size() < 8) {
          outcome.notes.push_back(instance.label + " on " +
                                  qopt::BackendName(op.backend) + ": " +
                                  r.error);
        }
        continue;
      }
      wall.push_back(r.wall_ms);
      wall_by_op[i].push_back(r.wall_ms);
      valid += r.valid;
      if (r.ratio >= 0) ratios.push_back(r.ratio);
      tally.Add(r);
    }
    ++cycles;
    if (args.digest_only) break;
  } while (NowMs() - start < budget_ms);
  outcome.digest = workload_digest.Hex();
  outcome.json.Set("setup_s", setup.MedianSeconds(), "s", setup.Note());
  const double parse_ms = setup.MedianParseMs();
  std::vector<double> op_medians;
  for (const std::vector<double>& samples : wall_by_op) {
    if (!samples.empty()) op_medians.push_back(Median(samples));
  }
  outcome.json.Set("latency_ms", GeoMean(op_medians), "ms",
                   "geometric mean over the " +
                       std::to_string(op_medians.size()) +
                       " ops of each op's median facade solve time");
  outcome.json.Set("feasible_share",
                   Share(valid, static_cast<long long>(wall.size())), "share",
                   "valid decodes over successful solves");
  outcome.json.Set("peak_rss_mb", PeakRssMb(), "MB", "getrusage ru_maxrss");
  outcome.extra.Set("solve_ms_p50", Median(wall), "ms",
                    "facade solve, closed loop, n=" +
                        std::to_string(wall.size()));
  if (wall.size() >= 100) {
    outcome.extra.Set("solve_ms_p90", Percentile(wall, 90), "ms",
                      std::to_string(wall.size()) + " solves");
  } else {
    outcome.notes.push_back("solve_ms_p90 not reported: " +
                            std::to_string(wall.size()) +
                            " solves (< 100) in this run");
  }
  if (ratios.empty()) {
    outcome.notes.push_back(
        "cost_ratio_p50 not reported: no valid solve of an instance within "
        "exact-reference size");
  } else {
    outcome.extra.Set("cost_ratio_p50", Median(ratios), "ratio",
                      std::to_string(ratios.size()) +
                          " valid solves with an exact reference");
  }
  outcome.extra.Set("failed_share", Share(outcome.failed, outcome.attempted),
                    "share");
  outcome.extra.Set("cycles", cycles, "count",
                    std::to_string(w.ops.size()) + " solves per cycle");
  SetSizeRows(qubits, terms, &outcome.extra);
  outcome.extra.Set("io.parse_ms", parse_ms, "ms",
                    "io load of all instances, median over set-ups");
  outcome.extra.Set("host_ref_ms", setup.MedianHostMs(), "ms",
                    "fixed scalar loop after each set-up, median: host speed");
  outcome.notes.push_back("generator: " + w.params);
  if (!args.trace) return outcome;

  // ---- traced run: standalone layer pipeline + probes -------------------
  TracedRun traced;
  traced.tally = tally;
  qopt::obs::Tracer::Instance().Reset();
  const double traced_start = NowMs();
  do {
    for (const SolveOp& op : w.ops) {
      // Alternate the facade/pipeline order op by op (see TracedSolve).
      traced.Add(TracedSolve(
          w.instances[static_cast<std::size_t>(op.instance)], w.encoder,
          OptionsFor(w, op), traced.calls % 2 == 0, &traced.recorder,
          &traced.counters));
    }
  } while (NowMs() - traced_start < budget_ms);
  for (std::size_t i = 0; i < w.instances.size(); ++i) {
    bool annealer = false;
    for (const SolveOp& op : w.ops) {
      annealer |= op.instance == static_cast<int>(i) &&
                  op.backend == qopt::Backend::kAnnealerEmulation;
    }
    const OwnEncoding own = EncodeForChecks(w.instances[i], w.encoder);
    ProbeLayers(w.instances[i], own, w.options, annealer,
                own.qubo.NumVariables() <= 20, &traced.counters);
  }
  MetricSet layer;
  const ServeRun serve_probe = RunServeProbe(args.seed, &layer, &outcome);
  FinishTracedRun(traced, args, parse_ms, serve_probe.late_ms,
                  "sender lateness of the serve probe", &outcome,
                  &layer);
  outcome.json = std::move(layer);
  return outcome;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qqo_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--digest-only] [--span-file PATH]\n");
    return 2;
  }
  if (args.workload != "small_quantum" && args.workload != "large_decompose") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Outcome outcome = RunSolveWorkload(args);
  if (args.digest_only) {
    std::printf("digest %s\n", outcome.digest.c_str());
    return 0;
  }
  std::string self_test;
  if (args.trace) {
    self_test = AttributionSelfTest();
    if (!self_test.empty()) {
      outcome.correct = false;
      outcome.notes.push_back("attribution self-test failed: " + self_test);
    }
  }
  outcome.correct = outcome.correct && outcome.failed == 0;
  std::printf("workload %s seed %llu seconds %g trace %d threads %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, qopt::ThreadPool::Default().NumThreads());
  std::printf("digest %s\n", outcome.digest.c_str());
  if (args.trace) {
    std::printf("attribution self-test %s\n",
                self_test.empty() ? "ok" : "FAILED");
  }
  for (const std::string& note : outcome.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("%s metrics:\n%s", args.trace ? "per-layer" : "end-to-end",
              outcome.json.Table().c_str());
  std::printf("other figures:\n%s", outcome.extra.Table().c_str());
  std::string json =
      std::string("{\"correct\": ") + (outcome.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max(1LL, outcome.attempted)) +
      ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : outcome.json.All()) {
    json += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
