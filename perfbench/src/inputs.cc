#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/json.h"
#include "common/random.h"
#include "io/workload_io.h"
#include "joinorder/join_order_baselines.h"
#include "mqo/mqo_baselines.h"
#include "mqo/mqo_generator.h"

namespace perfbench {
namespace {

using qopt::Backend;

/// Reference limits: instances beyond them count only toward feasibility.
constexpr std::uint64_t kMaxExhaustiveCombinations = 1u << 20;
constexpr int kMaxDpRelations = 12;

Instance MqoInstance(int id, const std::string& label,
                     const qopt::MqoProblem& problem) {
  Instance instance;
  instance.id = id;
  instance.kind = Kind::kMqo;
  instance.label = label;
  instance.json = qopt::MqoProblemToJson(problem).Dump();
  return instance;
}

Instance JoinInstance(int id, const std::string& label,
                      const qopt::QueryGraph& graph) {
  Instance instance;
  instance.id = id;
  instance.kind = Kind::kJoin;
  instance.label = label;
  instance.json = qopt::QueryGraphToJson(graph).Dump();
  return instance;
}

/// Nonzero per-op seed drawn from the workload stream.
std::uint64_t NextSeed(qopt::Rng& rng) { return 1 + rng.NextUint64(1u << 30); }

std::string MqoLabel(int queries, int ppq, std::uint64_t seed) {
  return "mqo " + std::to_string(queries) + "x" + std::to_string(ppq) +
         " seed=" + std::to_string(seed);
}

/// Integer-cost MQO batch for the serve stream: integer costs and savings
/// keep every penalty sum exact, so a relabelled copy encodes to a QUBO
/// whose coefficients are a permutation of the original's (an isomorphic
/// cache hit rather than a near-miss).
qopt::MqoProblem IntegerMqo(int queries, int ppq, std::uint64_t seed) {
  qopt::MqoGeneratorOptions gen;
  gen.num_queries = queries;
  gen.plans_per_query = ppq;
  gen.seed = seed;
  const qopt::MqoProblem raw = qopt::GenerateMqoProblem(gen);
  qopt::MqoProblem problem;
  for (int q = 0; q < raw.NumQueries(); ++q) {
    std::vector<double> costs;
    for (int plan : raw.PlansOfQuery(q)) {
      costs.push_back(std::round(raw.PlanCost(plan)));
    }
    problem.AddQuery(costs);
  }
  for (const auto& [pair, saving] : raw.Savings()) {
    const double rounded = std::round(saving);
    if (rounded > 0) problem.AddSaving(pair.first, pair.second, rounded);
  }
  return problem;
}

}  // namespace

qopt::OptimizerOptions CallerOptions() {
  qopt::OptimizerOptions options;
  options.anneal.num_reads = 50;
  options.anneal.num_sweeps = 2000;
  options.variational.max_iterations = 250;
  options.variational.shots = 4096;
  options.embedded.anneal.num_reads = 100;
  options.embedded.anneal.num_sweeps = 4000;
  options.pegasus_m = 4;
  return options;
}

SolveWorkload MakeSmallQuantum(std::uint64_t seed) {
  SolveWorkload w;
  w.name = "small_quantum";
  qopt::Rng rng(seed);
  int id = 0;
  // MQO batches of 9-16 qubits plus the Tables 1-2 example (8 qubits).
  // With the callers' budgets a 16-qubit QAOA solve takes most of a
  // second, so each shape appears once: a cycle must fit several times
  // into one run.
  w.instances.push_back(
      MqoInstance(id++, "mqo paper Tables 1-2", qopt::MakePaperExampleMqo()));
  const int shapes[][2] = {{3, 3}, {2, 5}, {3, 4}, {4, 3}, {5, 3}, {4, 4}};
  for (const auto& shape : shapes) {
    qopt::MqoGeneratorOptions gen;
    gen.num_queries = shape[0];
    gen.plans_per_query = shape[1];
    gen.seed = NextSeed(rng);
    w.instances.push_back(
        MqoInstance(id++, MqoLabel(shape[0], shape[1], gen.seed),
                    qopt::GenerateMqoProblem(gen)));
  }
  const int num_mqo = id;
  // Join graphs of 3-5 relations plus the Fig. 6 query.
  w.instances.push_back(
      JoinInstance(id++, "join paper Fig. 6", qopt::MakePaperExampleQuery()));
  // Every other graph gets one predicate beyond a spanning tree. A fixed
  // pattern, not a coin flip: embedding cost jumps with the edge count,
  // and a seed-dependent count of denser graphs moves the workload mean.
  int join = 0;
  for (int relations : {3, 4, 5, 3}) {
    qopt::QueryGeneratorOptions gen;
    gen.num_relations = relations;
    gen.num_predicates = relations - 1 + join++ % 2;
    gen.cardinality_min = 10;
    gen.cardinality_max = 1000;
    gen.selectivity_min = 0.01;
    gen.selectivity_max = 1.0;
    gen.seed = NextSeed(rng);
    w.instances.push_back(JoinInstance(
        id++,
        "join random " + std::to_string(relations) + " rel, " +
            std::to_string(gen.num_predicates) +
            " pred seed=" + std::to_string(gen.seed),
        qopt::GenerateRandomQuery(gen)));
  }
  for (int i = 0; i < id; ++i) {
    const bool mqo = i < num_mqo;
    for (Backend backend : {mqo ? Backend::kQaoa : Backend::kSimulatedAnnealing,
                            Backend::kAnnealerEmulation}) {
      w.ops.push_back(SolveOp{i, backend, NextSeed(rng)});
    }
  }
  w.options = CallerOptions();
  w.options.dispatch = qopt::DispatchMode::kSerial;
  w.params =
      "mqo {paper, 3x3, 2x5, 3x4, 4x3, 5x3, 4x4} x {qaoa, annealer}; "
      "join {Fig.6, random 3 rel 2 pred, 4 rel 4 pred, 5 rel 4 pred, 3 rel 3 "
      "pred, card 10-1000, sel 0.01-1} x {sa, annealer}; serial; qaoa p=1 "
      "250 iters 4096 shots; sa 50x2000; annealer P4 100x4000; "
      "thresholds {10}";
  return w;
}

SolveWorkload MakeLargeDecompose(std::uint64_t seed) {
  SolveWorkload w;
  w.name = "large_decompose";
  qopt::Rng rng(seed);
  int id = 0;
  const char* names[] = {"chain", "star", "cycle", "clique"};
  constexpr int kCopies = 6;
  for (int copy = 0; copy < kCopies; ++copy) {
    // Decomposition takes 2 to 5 rounds depending on the instance, and the
    // solve time follows the round count, so six of each sparse topology
    // keep the workload's mean steady from seed to seed. Their
    // selectivities are stratified: copy k draws from the k-th sixth of
    // [0.05, 0.5], so every seed covers the range evenly. The clique
    // (~11.5k variables) sets the memory peak and takes as long as several
    // sparse joins; one is enough.
    for (int topology = 0; topology < (copy < 1 ? 4 : 3); ++topology) {
      const double sel =
          topology == 3 ? rng.NextDouble(0.5, 0.9)
                        : 0.05 + 0.45 * (copy + rng.NextDouble()) / kCopies;
      qopt::QueryGraph graph =
          topology == 0   ? qopt::GenerateChainQuery(20, 100.0, sel)
          : topology == 1 ? qopt::GenerateStarQuery(20, 100.0, sel)
          : topology == 2 ? qopt::GenerateCycleQuery(20, 100.0, sel)
                          : qopt::GenerateCliqueQuery(20, 100.0, sel);
      w.instances.push_back(JoinInstance(
          id++,
          std::string("join ") + names[topology] +
              " 20 rel card 100 sel=" + std::to_string(sel),
          graph));
    }
  }
  for (int batch = 0; batch < 4; ++batch) {
    qopt::MqoGeneratorOptions gen;
    gen.num_queries = 10;
    gen.plans_per_query = 10;
    gen.seed = NextSeed(rng);
    w.instances.push_back(
        MqoInstance(id++, MqoLabel(10, 10, gen.seed),
                    qopt::GenerateMqoProblem(gen)));
  }
  for (int i = 0; i < id; ++i) {
    w.ops.push_back(SolveOp{i, Backend::kSimulatedAnnealing, NextSeed(rng)});
  }
  w.options = CallerOptions();
  w.options.dispatch = qopt::DispatchMode::kSerial;
  w.options.decompose = 26;
  w.params =
      "6 x join {chain, star, cycle} 20 rel card 100 sel 0.05-0.5 "
      "stratified, 1 x "
      "clique 20 rel sel 0.5-0.9; 4 x mqo 10x10; sa 50x2000 (blocks clamped "
      "to 8x1000), decompose=26, serial; thresholds {10}";
  return w;
}

qopt::OptimizerOptions OptionsFor(const SolveWorkload& workload,
                                  const SolveOp& op) {
  qopt::OptimizerOptions options = workload.options;
  options.backend = op.backend;
  options.seed = op.seed;
  return options;
}

qopt::Status LoadInstances(std::vector<Instance>* instances) {
  for (Instance& instance : *instances) {
    QOPT_ASSIGN_OR_RETURN(const qopt::JsonValue json,
                          qopt::JsonValue::ParseOrStatus(instance.json));
    if (instance.kind == Kind::kMqo) {
      QOPT_ASSIGN_OR_RETURN(qopt::MqoProblem problem,
                            qopt::MqoProblemFromJson(json));
      instance.mqo = std::move(problem);
    } else {
      QOPT_ASSIGN_OR_RETURN(qopt::QueryGraph graph,
                            qopt::QueryGraphFromJson(json));
      instance.graph = std::move(graph);
    }
  }
  return qopt::OkStatus();
}

void ComputeReferences(std::vector<Instance>* instances) {
  for (Instance& instance : *instances) {
    if (instance.kind == Kind::kMqo) {
      double combinations = 1.0;
      for (int q = 0; q < instance.mqo->NumQueries(); ++q) {
        combinations *=
            static_cast<double>(instance.mqo->PlansOfQuery(q).size());
      }
      if (combinations <= static_cast<double>(kMaxExhaustiveCombinations)) {
        instance.optimum = qopt::SolveMqoExhaustive(*instance.mqo).cost;
      }
    } else if (instance.graph->NumRelations() <= kMaxDpRelations) {
      // The facade decodes with CoutCost(graph, order), final join included.
      instance.optimum = qopt::SolveJoinOrderDp(*instance.graph, true).cost;
    }
  }
}

qopt::MqoProblem RelabelMqo(const qopt::MqoProblem& mqo, std::uint64_t seed) {
  qopt::Rng rng(seed);
  std::vector<int> queries(static_cast<std::size_t>(mqo.NumQueries()));
  std::iota(queries.begin(), queries.end(), 0);
  std::shuffle(queries.begin(), queries.end(), rng);
  std::vector<int> new_id(static_cast<std::size_t>(mqo.NumPlans()), -1);
  qopt::MqoProblem out;
  int next = 0;
  for (int q : queries) {
    std::vector<int> plans = mqo.PlansOfQuery(q);
    std::shuffle(plans.begin(), plans.end(), rng);
    std::vector<double> costs;
    for (int plan : plans) {
      costs.push_back(mqo.PlanCost(plan));
      new_id[static_cast<std::size_t>(plan)] = next++;
    }
    out.AddQuery(costs);
  }
  for (const auto& [pair, saving] : mqo.Savings()) {
    out.AddSaving(new_id[static_cast<std::size_t>(pair.first)],
                  new_id[static_cast<std::size_t>(pair.second)], saving);
  }
  return out;
}

qopt::QueryGraph RelabelGraph(const qopt::QueryGraph& graph,
                              std::uint64_t seed) {
  qopt::Rng rng(seed);
  const int n = graph.NumRelations();
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<double> cards(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    cards[static_cast<std::size_t>(perm[static_cast<std::size_t>(r)])] =
        graph.Cardinality(r);
  }
  qopt::QueryGraph out(cards);
  for (const auto& p : graph.Predicates()) {
    out.AddPredicate(perm[static_cast<std::size_t>(p.rel1)],
                     perm[static_cast<std::size_t>(p.rel2)], p.selectivity);
  }
  return out;
}

std::vector<Instance> PaperExamples(int first_id) {
  return {MqoInstance(first_id, "mqo paper Tables 1-2",
                      qopt::MakePaperExampleMqo()),
          JoinInstance(first_id + 1, "join paper Fig. 6",
                       qopt::MakePaperExampleQuery())};
}

// ---------------------------------------------------------------------------
// Serve probe

namespace {

/// Variants per base problem; each is one cache key.
constexpr int kVariantsPerProblem = 3;

struct KeyOptions {
  Backend backend;
  qopt::DispatchMode dispatch;
  std::uint64_t seed;
};

/// Key variants: MQO {exact serial, exact race, sa race}, join {exact
/// serial, sa race, sa serial}. A raced solve of these sizes ends when its
/// exact lane wins, so most misses take about a millisecond; serial SA
/// joins (50 reads x 2000 sweeps in the server) are the slow minority.
KeyOptions KeyOptionsFor(Kind kind, int key) {
  const int variant = key % kVariantsPerProblem;
  const std::uint64_t seed = 11 + static_cast<std::uint64_t>(key);
  if (variant == 0) return {Backend::kExact, qopt::DispatchMode::kSerial, seed};
  if (variant == 1) {
    return {kind == Kind::kMqo ? Backend::kExact : Backend::kSimulatedAnnealing,
            qopt::DispatchMode::kRace, seed};
  }
  return {Backend::kSimulatedAnnealing,
          kind == Kind::kMqo ? qopt::DispatchMode::kRace
                             : qopt::DispatchMode::kSerial,
          seed};
}

std::string SolveLine(const std::string& id, Kind kind, const KeyOptions& o,
                      bool use_cache, long long timeout_ms,
                      const std::string& workload_json) {
  std::string line = "{\"id\":\"" + id + "\",\"type\":\"" +
                     (kind == Kind::kMqo ? "mqo" : "join") +
                     "\",\"backend\":\"" + qopt::BackendName(o.backend) +
                     "\",\"dispatch\":\"" + qopt::DispatchModeName(o.dispatch) +
                     "\",\"seed\":" + std::to_string(o.seed) +
                     ",\"timeout_ms\":" + std::to_string(timeout_ms);
  if (!use_cache) line += ",\"cache\":false";
  return line + ",\"workload\":" + workload_json + "}";
}

}  // namespace

ServeWorkload MakeServeStream(std::uint64_t seed) {
  ServeWorkload w;
  qopt::Rng rng(seed);
  int id = 0;
  const int shapes[][2] = {{2, 2}, {2, 3}, {3, 2}, {3, 3}, {2, 4}, {4, 2}};
  for (int copy = 0; copy < 5; ++copy) {
    for (const auto& shape : shapes) {
      const std::uint64_t s = NextSeed(rng);
      w.instances.push_back(MqoInstance(
          id++, MqoLabel(shape[0], shape[1], s) + " (integer costs)",
          IntegerMqo(shape[0], shape[1], s)));
    }
  }
  for (int j = 0; j < 18; ++j) {
    qopt::QueryGeneratorOptions gen;
    gen.num_relations = 2;
    gen.num_predicates = 1;
    gen.cardinality_min = 10;
    gen.cardinality_max = 1000;
    gen.selectivity_min = 0.01;
    gen.seed = NextSeed(rng);
    w.instances.push_back(JoinInstance(
        id++, "join random 2 rel seed=" + std::to_string(gen.seed),
        qopt::GenerateRandomQuery(gen)));
  }
  w.num_keys = id * kVariantsPerProblem;
  w.cache_capacity = static_cast<std::size_t>(w.num_keys / 2);
  w.rate = 100.0;
  w.params =
      "30 mqo 2x2..4x2 integer costs {exact serial, exact race, sa race} + "
      "18 join 2 rel {exact serial, sa race, sa serial}; 144 keys, cache " +
      std::to_string(w.cache_capacity) +
      "; 30% relabelled, 10% cache:false, 1 malformed per 50, stats per 150 "
      "and after every raced request; Poisson arrivals at 100 req/s";
  return w;
}

std::vector<ServeLine> MakeServeLines(const ServeWorkload& workload,
                                      std::uint64_t seed, std::size_t count) {
  qopt::Rng rng(seed ^ 0x5e57'0000'0000ULL);
  std::vector<ServeLine> lines;
  lines.reserve(count);
  bool barrier_due = false;
  for (std::size_t i = 0; i < count; ++i) {
    ServeLine line;
    line.id = "r" + std::to_string(i);
    const long long timeout_ms = 3600000LL + static_cast<long long>(i);
    // A raced request is followed by a stats barrier: a raced solve waits
    // on lanes it submits to the pool it runs on, so as many concurrent
    // raced requests as pool workers would wait on each other forever.
    if (i % 150 == 149 || barrier_due) {
      barrier_due = false;
      line.type = ServeLine::Type::kStats;
      line.text = "{\"id\":\"" + line.id + "\",\"type\":\"stats\"}";
      lines.push_back(std::move(line));
      continue;
    }
    if (i % 50 == 49) {
      line.type = ServeLine::Type::kMalformed;
      line.expected_code = "INVALID_ARGUMENT";
      const std::string& mqo_json = workload.instances[0].json;
      switch ((i / 50) % 4) {
        case 0:
          line.text =
              "{\"id\":\"" + line.id + "\",\"type\":\"mqo\",\"workload\":";
          line.expect_id = false;
          break;
        case 1:
          line.text = "{\"id\":\"" + line.id +
                      "\",\"type\":\"mqo\",\"backend\":\"warp\",\"workload\":" +
                      mqo_json + "}";
          break;
        case 2:
          line.text = "{\"id\":\"" + line.id +
                      "\",\"type\":\"mqo\",\"decompose\":1,\"workload\":" +
                      mqo_json + "}";
          break;
        default:
          line.text = "{\"id\":\"" + line.id + "\",\"type\":\"teleport\"}";
          break;
      }
      lines.push_back(std::move(line));
      continue;
    }
    line.key = static_cast<int>(
        rng.NextUint64(static_cast<std::uint64_t>(workload.num_keys)));
    const Instance& base =
        workload.instances[static_cast<std::size_t>(line.key /
                                                    kVariantsPerProblem)];
    const KeyOptions options = KeyOptionsFor(base.kind, line.key);
    line.backend = options.backend;
    barrier_due = options.dispatch == qopt::DispatchMode::kRace;
    line.relabelled = rng.NextBool(0.3);
    line.use_cache = !rng.NextBool(0.1);
    line.problem = base;
    if (line.relabelled) {
      const std::uint64_t relabel_seed = NextSeed(rng);
      if (base.kind == Kind::kMqo) {
        line.problem.mqo = RelabelMqo(*base.mqo, relabel_seed);
        line.problem.json = qopt::MqoProblemToJson(*line.problem.mqo).Dump();
      } else {
        line.problem.graph = RelabelGraph(*base.graph, relabel_seed);
        line.problem.json =
            qopt::QueryGraphToJson(*line.problem.graph).Dump();
      }
    }
    line.text = SolveLine(line.id, base.kind, options, line.use_cache,
                          timeout_ms, line.problem.json);
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace perfbench
