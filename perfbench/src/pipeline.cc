#include "pipeline.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "bilp/bilp_to_qubo.h"
#include "common/retry.h"
#include "decompose/decomposer.h"
#include "joinorder/join_order.h"
#include "mqo/mqo_qubo_encoder.h"
#include "obs/trace.h"
#include "qubo/brute_force_solver.h"
#include "qubo/qubo_canonical.h"
#include "serve/protocol.h"
#include "util.h"

namespace perfbench {
namespace {

using qopt::Backend;
using Bits = std::vector<std::uint8_t>;

/// The facade reroutes a failed quantum backend to the exact oracle up to
/// this size, SA beyond (quantum_optimizer.cc).
constexpr int kExactFallbackQubits = 20;

bool EnergyMatches(double reported, double recomputed) {
  return std::abs(reported - recomputed) <=
         1e-9 * std::max(1.0, std::abs(recomputed));
}

template <typename Report>
void DigestCommon(const Report& report, Digest* d) {
  d->Add(qopt::BackendName(report.backend_used));
  d->Add(static_cast<long long>(report.valid));
  d->Add(report.qubo_energy);
  d->Add(report.solution.cost);
  d->Add(static_cast<long long>(report.qubits));
  d->Add(static_cast<long long>(report.quadratic_terms));
  d->Add(static_cast<long long>(report.degraded));
  d->Add(report.degradation_reason);
  d->Add(static_cast<long long>(report.stats.attempts));
  d->Add(static_cast<long long>(report.stats.timed_out));
  d->Add(static_cast<long long>(report.stats.decompose_rounds));
  d->Add(static_cast<long long>(report.stats.decompose_subproblems));
  for (double e : report.stats.decompose_round_energies) d->Add(e);
  d->Add(static_cast<long long>(report.stats.lanes.size()));
  for (const qopt::RaceLaneStats& lane : report.stats.lanes) {
    if (lane.won) d->Add(qopt::BackendName(lane.backend));
  }
  d->Add(std::string(report.bits.begin(), report.bits.end()));
}

/// Checks shared by both report kinds; returns "" when all pass.
template <typename Report>
std::string CheckCommon(const Report& report, const OwnEncoding& own) {
  if (report.bits.size() !=
      static_cast<std::size_t>(own.qubo.NumVariables())) {
    return "bits size differs from the QUBO's variable count";
  }
  if (report.qubits != own.qubo.NumVariables() ||
      report.quadratic_terms != own.qubo.NumQuadraticTerms()) {
    return "reported qubits/quadratic terms differ from the own encoding";
  }
  if (!EnergyMatches(report.qubo_energy, own.qubo.Energy(report.bits))) {
    return "reported energy differs from Energy(bits)";
  }
  return "";
}

const std::vector<int>& Plan(const qopt::MqoSolveReport& report) {
  return report.solution.selection;
}
const std::vector<int>& Plan(const qopt::JoinOrderSolveReport& report) {
  return report.solution.order;
}

void FinishResult(const Instance& instance, double cost, bool valid,
                  SolveResult* r) {
  r->valid = valid;
  if (!valid) return;
  r->cost = cost;
  if (std::isfinite(instance.optimum)) {
    const double slack = 1e-9 * std::max(1.0, std::abs(instance.optimum));
    if (cost < instance.optimum - slack) {
      r->error = "decoded cost is below the exact optimum";
    }
    if (instance.optimum > 0) r->ratio = cost / instance.optimum;
  }
}

/// Checks a facade report when `check` is set: CheckCommon on the
/// benchmark's own encoding (built by `encode` after the timed call and
/// dropped on return), then its decode of the bits (`decode`) and its
/// price (`cost`) must match the report's.
template <typename Report, typename Encode, typename Decode, typename Cost>
SolveResult CheckReport(const qopt::StatusOr<Report>& report, double wall_ms,
                        const Instance& instance, bool check, Encode encode,
                        Decode decode, Cost cost) {
  SolveResult r;
  r.wall_ms = wall_ms;
  if (!report.ok()) {
    r.error = report.status().ToString();
    return r;
  }
  if (check) {
    const OwnEncoding own = encode();
    r.error = CheckCommon(*report, own);
    std::vector<int> plan;
    const bool valid = decode(own, report->bits, &plan);
    if (valid != report->valid ||
        (valid &&
         (plan != Plan(*report) || cost(plan) != report->solution.cost))) {
      r.error = "decode or cost differs from the recomputed one";
    }
  }
  if (r.error.empty()) {
    FinishResult(instance, report->solution.cost, report->valid, &r);
  }
  r.qubits = report->qubits;
  r.quadratic_terms = report->quadratic_terms;
  r.stats = report->stats;
  r.degraded = report->degraded;
  Digest digest;
  DigestCommon(*report, &digest);
  for (int item : Plan(*report)) digest.Add(static_cast<long long>(item));
  r.ok = r.error.empty();
  r.digest = digest.Hex();
  return r;
}

struct KernelOut {
  qopt::Status status;
  Bits bits;
};

KernelOut RunSa(const qopt::QuboModel& qubo, qopt::AnnealOptions anneal,
                std::uint64_t seed, SpanRecorder* recorder, int parent,
                int instance, LayerCounters* counters) {
  if (anneal.seed == 0) anneal.seed = seed;
  const double start = NowMs();
  ScopedSpan span(recorder, "anneal.sa", parent, instance);
  qopt::StatusOr<qopt::AnnealResult> sa =
      qopt::TrySolveQuboWithAnnealing(qubo, anneal);
  const double ms = NowMs() - start;
  counters->Add("anneal.sa_ms", ms);
  counters->Add("anneal.spin_updates", static_cast<double>(anneal.num_reads) *
                                           anneal.num_sweeps *
                                           qubo.NumVariables());
  if (!sa.ok()) return {sa.status(), {}};
  return {qopt::OkStatus(), std::move(sa->best_bits)};
}

KernelOut RunExact(const qopt::QuboModel& qubo, SpanRecorder* recorder,
                   int parent, int instance, LayerCounters* counters) {
  const double start = NowMs();
  ScopedSpan span(recorder, "qubo.exact", parent, instance);
  qopt::StatusOr<qopt::BruteForceResult> exact =
      qopt::TrySolveQuboBruteForce(qubo);
  counters->Add("qubo.exact_ms", NowMs() - start);
  if (!exact.ok()) return {exact.status(), {}};
  return {qopt::OkStatus(), std::move(exact->best_bits)};
}

/// Decomposed SA with the facade's per-block clamps (<= 8 reads, <= 1000
/// sweeps, AttemptSeed of the block seed), one span per block.
KernelOut RunDecomposed(const qopt::QuboModel& qubo,
                        const qopt::OptimizerOptions& options,
                        SpanRecorder* recorder, int parent, int instance,
                        LayerCounters* counters) {
  ScopedSpan span(recorder, "decompose.solve", parent, instance);
  qopt::DecomposeOptions decompose;
  decompose.max_subproblem_size = options.decompose;
  decompose.seed = options.seed;
  std::mutex mutex;
  double block_ms = 0.0;
  double updates = 0.0;
  const qopt::SubproblemSolver solver =
      [&](const qopt::QuboModel& sub, std::uint64_t seed,
          const qopt::Deadline& deadline)
      -> qopt::StatusOr<qopt::SubproblemResult> {
    qopt::AnnealOptions anneal = options.anneal;
    anneal.seed = qopt::AttemptSeed(seed, 1);
    anneal.num_reads = std::min(std::max(1, anneal.num_reads), 8);
    anneal.num_sweeps = std::min(std::max(1, anneal.num_sweeps), 1000);
    anneal.deadline = deadline;
    const double start = NowMs();
    qopt::StatusOr<qopt::AnnealResult> sa = [&] {
      ScopedSpan block(recorder, "anneal.sa", span.id(), instance);
      return qopt::TrySolveQuboWithAnnealing(sub, anneal);
    }();
    {
      std::lock_guard<std::mutex> lock(mutex);
      block_ms += NowMs() - start;
      updates += static_cast<double>(anneal.num_reads) * anneal.num_sweeps *
                 sub.NumVariables();
    }
    if (!sa.ok()) return sa.status();
    return qopt::SubproblemResult{std::move(sa->best_bits)};
  };
  qopt::StatusOr<qopt::DecomposeResult> solved =
      qopt::SolveQuboDecomposed(qubo, decompose, solver);
  counters->Add("anneal.sa_ms", block_ms);
  counters->Add("anneal.spin_updates", updates);
  if (!solved.ok()) return {solved.status(), {}};
  return {qopt::OkStatus(), std::move(solved->bits)};
}

/// The backend kernel the facade runs for `options`, seeded with `seed`
/// (the attempt-1 seed for serial dispatch, the caller's seed for a race
/// lane).
KernelOut RunKernel(const qopt::QuboModel& qubo,
                    const qopt::OptimizerOptions& options, std::uint64_t seed,
                    SpanRecorder* recorder, int parent, int instance,
                    LayerCounters* counters) {
  const int n = qubo.NumVariables();
  if (options.decompose > 0 && n > options.decompose) {
    return RunDecomposed(qubo, options, recorder, parent, instance, counters);
  }
  switch (options.backend) {
    case Backend::kExact:
      return RunExact(qubo, recorder, parent, instance, counters);
    case Backend::kSimulatedAnnealing:
      return RunSa(qubo, options.anneal, seed, recorder, parent, instance,
                   counters);
    case Backend::kQaoa: {
      qopt::VariationalOptions variational = options.variational;
      if (variational.seed == 0) variational.seed = seed;
      const double start = NowMs();
      ScopedSpan span(recorder, "variational.qaoa", parent, instance);
      qopt::StatusOr<qopt::VariationalResult> qaoa =
          qopt::TrySolveQuboWithQaoa(qubo, variational);
      const double ms = NowMs() - start;
      if (!qaoa.ok()) return {qaoa.status(), {}};
      counters->Add("variational.qaoa_ms", ms);
      counters->Add("variational.evaluations", qaoa->evaluations);
      if (qaoa->evaluations > 0) {
        counters->Add("circuit.ms_per_evaluation", ms / qaoa->evaluations);
      }
      // Computed, not measured: one 16-byte amplitude sweep of 2^n per gate.
      counters->Add("circuit.bytes_per_evaluation",
                    16.0 * std::ldexp(1.0, n) *
                        qaoa->optimal_circuit.NumGates());
      return {qopt::OkStatus(), std::move(qaoa->best_bits)};
    }
    case Backend::kAnnealerEmulation: {
      KernelOut out;
      {
        const double start = NowMs();
        ScopedSpan span(recorder, "anneal.annealer", parent, instance);
        qopt::EmbeddedSolveOptions embedded = options.embedded;
        if (embedded.embed.seed == 0) embedded.embed.seed = seed;
        if (embedded.anneal.seed == 0) embedded.anneal.seed = seed;
        const qopt::SimpleGraph topology = [&] {
          ScopedSpan pegasus(recorder, "anneal.pegasus", span.id(), instance);
          return qopt::MakePegasus(options.pegasus_m);
        }();
        qopt::StatusOr<qopt::EmbeddedSolveResult> solved =
            qopt::TrySolveQuboOnTopology(qubo, topology, embedded);
        counters->Add("anneal.annealer_ms", NowMs() - start);
        if (solved.ok()) return {qopt::OkStatus(), std::move(solved->bits)};
        out.status = solved.status();
      }
      if (out.status.code() != qopt::StatusCode::kUnavailable ||
          !options.classical_fallback) {
        return out;
      }
      // The facade's degraded path: attempt 2 on a classical backend.
      if (n <= kExactFallbackQubits) {
        return RunExact(qubo, recorder, parent, instance, counters);
      }
      return RunSa(qubo, options.anneal, qopt::AttemptSeed(options.seed, 2),
                   recorder, parent, instance, counters);
    }
    default:
      return {qopt::InvalidArgumentError("backend not replicated"), {}};
  }
}

}  // namespace

OwnEncoding EncodeForChecks(const Instance& instance,
                            const qopt::JoinOrderEncoderOptions& encoder) {
  OwnEncoding own;
  if (instance.kind == Kind::kMqo) {
    own.qubo = qopt::EncodeMqoAsQubo(*instance.mqo).qubo;
  } else {
    own.join = qopt::EncodeJoinOrderAsBilp(*instance.graph, encoder);
    own.qubo = qopt::EncodeBilpAsQubo(own.join->bilp).qubo;
  }
  return own;
}

SolveResult SolveAndCheck(const Instance& instance,
                          const qopt::JoinOrderEncoderOptions& encoder,
                          const qopt::OptimizerOptions& options, bool check) {
  const auto encode = [&] { return EncodeForChecks(instance, encoder); };
  const double start = NowMs();
  if (instance.kind == Kind::kMqo) {
    const qopt::StatusOr<qopt::MqoSolveReport> report =
        qopt::TrySolveMqo(*instance.mqo, options);
    return CheckReport(
        report, NowMs() - start, instance, check, encode,
        [&](const OwnEncoding&, const Bits& bits,
            std::vector<int>* selection) {
          return instance.mqo->DecodeBits(bits, selection);
        },
        [&](const std::vector<int>& selection) {
          return instance.mqo->SelectionCost(selection);
        });
  }
  const qopt::StatusOr<qopt::JoinOrderSolveReport> report =
      qopt::TrySolveJoinOrder(*instance.graph, encoder, options);
  return CheckReport(
      report, NowMs() - start, instance, check, encode,
      [&](const OwnEncoding& own, const Bits& bits, std::vector<int>* order) {
        return qopt::DecodeJoinOrder(*own.join, bits, order);
      },
      [&](const std::vector<int>& order) {
        return qopt::CoutCost(*instance.graph, order);
      });
}

LayerCall TracedSolve(const Instance& instance,
                      const qopt::JoinOrderEncoderOptions& encoder,
                      const qopt::OptimizerOptions& options, bool facade_first,
                      SpanRecorder* recorder, LayerCounters* counters) {
  LayerCall call;
  Bits facade_bits;
  // The winning lane of a raced solve is what the standalone kernel
  // replays, so a raced op always runs the facade first.
  qopt::OptimizerOptions kernel_options = options;
  std::uint64_t kernel_seed = qopt::AttemptSeed(options.seed, 1);
  auto run_facade = [&](bool traced) {
    if (traced) qopt::obs::Tracer::Instance().Enable();
    const double start = NowMs();
    qopt::SolveStats stats;
    {
      ScopedSpan span(traced ? recorder : nullptr, "core.facade", -1,
                      instance.id);
      if (instance.kind == Kind::kMqo) {
        auto report = qopt::TrySolveMqo(*instance.mqo, options);
        if (report.ok()) {
          facade_bits = std::move(report->bits);
          stats = std::move(report->stats);
        }
      } else {
        auto report =
            qopt::TrySolveJoinOrder(*instance.graph, encoder, options);
        if (report.ok()) {
          facade_bits = std::move(report->bits);
          stats = std::move(report->stats);
        }
      }
    }
    (traced ? call.facade_ms : call.untraced_ms) = NowMs() - start;
    if (traced) qopt::obs::Tracer::Instance().Disable();
    for (const qopt::RaceLaneStats& lane : stats.lanes) {
      if (!lane.won) continue;
      kernel_options.backend = lane.backend;
      kernel_options.dispatch = qopt::DispatchMode::kSerial;
      kernel_seed = options.seed;  // Lanes run on the caller's seed.
    }
  };
  const bool raced = options.dispatch == qopt::DispatchMode::kRace &&
                     options.decompose == 0;
  if (facade_first || raced) {
    run_facade(false);
    run_facade(true);
  }
  Bits kernel_bits;
  bool kernel_ok = false;

  {
    ScopedSpan root(recorder, "pipeline", -1, instance.id);
    const int parent = root.id();
    qopt::QuboModel qubo;
    std::optional<qopt::JoinOrderEncoding> join;
    double start = NowMs();
    if (instance.kind == Kind::kMqo) {
      ScopedSpan span(recorder, "mqo.encode", parent, instance.id);
      auto encoding = qopt::TryEncodeMqoAsQubo(*instance.mqo);
      if (encoding.ok()) qubo = std::move(encoding->qubo);
      call.encode_ms = NowMs() - start;
      counters->Add("mqo.encode_ms", call.encode_ms);
    } else {
      {
        ScopedSpan span(recorder, "joinorder.encode", parent, instance.id);
        auto encoding =
            qopt::TryEncodeJoinOrderAsBilp(*instance.graph, encoder);
        if (encoding.ok()) join = std::move(*encoding);
      }
      const double mid = NowMs();
      counters->Add("joinorder.encode_ms", mid - start);
      if (join.has_value()) {
        ScopedSpan span(recorder, "bilp.to_qubo", parent, instance.id);
        qubo = qopt::EncodeBilpAsQubo(join->bilp).qubo;
      }
      call.encode_ms = NowMs() - start;
      counters->Add("bilp.to_qubo_ms", NowMs() - mid);
    }
    counters->Add("qubo.vars", qubo.NumVariables());
    counters->Add("qubo.quadratic_terms", qubo.NumQuadraticTerms());

    start = NowMs();
    KernelOut kernel = RunKernel(qubo, kernel_options, kernel_seed, recorder,
                                 parent, instance.id, counters);
    call.kernel_ms = NowMs() - start;

    start = NowMs();
    if (instance.kind == Kind::kMqo) {
      ScopedSpan span(recorder, "mqo.decode", parent, instance.id);
      std::vector<int> selection;
      if (instance.mqo->DecodeBits(kernel.bits, &selection)) {
        (void)instance.mqo->SelectionCost(selection);
      }
      call.decode_ms = NowMs() - start;
      counters->Add("mqo.decode_ms", call.decode_ms);
    } else {
      ScopedSpan span(recorder, "joinorder.decode", parent, instance.id);
      std::vector<int> order;
      if (join.has_value() &&
          qopt::DecodeJoinOrder(*join, kernel.bits, &order)) {
        (void)qopt::CoutCost(*instance.graph, order);
      }
      call.decode_ms = NowMs() - start;
      counters->Add("joinorder.decode_ms", call.decode_ms);
    }
    kernel_bits = std::move(kernel.bits);
    kernel_ok = kernel.status.ok();
  }
  if (!facade_first && !raced) {
    run_facade(true);
    run_facade(false);
  }
  call.replica_matches = kernel_ok && kernel_bits == facade_bits;
  return call;
}

void ProbeLayers(const Instance& instance, const OwnEncoding& own,
                 const qopt::OptimizerOptions& options, bool embed, bool exact,
                 LayerCounters* counters) {
  double start = NowMs();
  (void)qopt::ComputeQuboSignature(own.qubo);
  counters->Add("qubo.canonical_us", 1000.0 * (NowMs() - start));
  if (embed) {
    const qopt::SimpleGraph topology = qopt::MakePegasus(options.pegasus_m);
    qopt::EmbedOptions embed_options = options.embedded.embed;
    if (embed_options.seed == 0) {
      embed_options.seed = qopt::AttemptSeed(options.seed, 1);
    }
    start = NowMs();
    qopt::StatusOr<qopt::Embedding> embedding = qopt::TryFindMinorEmbedding(
        own.qubo.InteractionGraph(), topology, embed_options);
    counters->Add("anneal.embed_ms", NowMs() - start);
    counters->Add("anneal.embed_success", embedding.ok() ? 1.0 : 0.0);
    if (embedding.ok()) {
      counters->Add("anneal.physical_qubits", embedding->NumPhysicalQubits());
    }
  }
  if (exact && own.qubo.NumVariables() <= kExactFallbackQubits) {
    RunExact(own.qubo, nullptr, -1, instance.id, counters);
  }
  const std::string line =
      std::string("{\"id\":\"probe\",\"type\":\"") +
      (instance.kind == Kind::kMqo ? "mqo" : "join") +
      "\",\"backend\":\"sa\",\"workload\":" + instance.json + "}";
  start = NowMs();
  (void)qopt::serve::ParseServeRequest(line, qopt::DispatchMode::kSerial);
  counters->Add("serve.parse_us", 1000.0 * (NowMs() - start));
}

}  // namespace perfbench
