#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/quantum_optimizer.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "mqo/mqo_problem.h"

namespace perfbench {

enum class Kind { kMqo, kJoin };

/// One generated problem. The benchmark hands the library only `json`
/// (loaded through io at set-up); the generator parameters stay here.
struct Instance {
  int id = 0;
  Kind kind = Kind::kMqo;
  std::string label;  ///< Generator call, e.g. "mqo 4x4 seed=17".
  std::string json;
  std::optional<qopt::MqoProblem> mqo;    ///< Filled by LoadInstances.
  std::optional<qopt::QueryGraph> graph;  ///< Filled by LoadInstances.
  /// Exact classical optimum (SolveMqoExhaustive / SolveJoinOrderDp, in the
  /// facade's cost convention); NaN when the instance is too large for it.
  double optimum = std::numeric_limits<double>::quiet_NaN();
};

/// One facade solve of the closed loop.
struct SolveOp {
  int instance = 0;
  qopt::Backend backend = qopt::Backend::kSimulatedAnnealing;
  std::uint64_t seed = 1;
};

/// A closed-loop workload: one cycle of `ops`, repeated until the run's
/// time is used up.
struct SolveWorkload {
  std::string name;
  std::string params;  ///< Generator parameters, printed with the report.
  std::vector<Instance> instances;
  std::vector<SolveOp> ops;
  /// Facade options shared by every op (backend and seed come per op).
  qopt::OptimizerOptions options;
  qopt::JoinOrderEncoderOptions encoder;
};

/// The solver budgets every caller of the facade in the repo passes (the
/// qqo CLI and qopt::serve::Server): SA 50 reads x 2000 sweeps, QAOA 250
/// iterations x 4096 shots, embedded annealing 100 x 4000 on Pegasus P4.
qopt::OptimizerOptions CallerOptions();

SolveWorkload MakeSmallQuantum(std::uint64_t seed);
SolveWorkload MakeLargeDecompose(std::uint64_t seed);
qopt::OptimizerOptions OptionsFor(const SolveWorkload& workload,
                                  const SolveOp& op);

/// Parses every instance's JSON through the io layer (the timed part of
/// set-up).
qopt::Status LoadInstances(std::vector<Instance>* instances);

/// Exact optima for instances within reference size. Untimed.
void ComputeReferences(std::vector<Instance>* instances);

/// Copies of `mqo` / `graph` with variables relabelled by a seeded
/// permutation (query and plan order; relation order).
qopt::MqoProblem RelabelMqo(const qopt::MqoProblem& mqo, std::uint64_t seed);
qopt::QueryGraph RelabelGraph(const qopt::QueryGraph& graph,
                              std::uint64_t seed);

/// The paper's worked examples (Tables 1-2 MQO, Fig. 6 join) as
/// instances; the traced run probes idle layers on them.
std::vector<Instance> PaperExamples(int first_id);

// ---------------------------------------------------------------------------
// Serve probe

/// One request line of the open-loop stream.
struct ServeLine {
  enum class Type { kSolve, kMalformed, kStats };
  Type type = Type::kSolve;
  std::string id;
  std::string text;
  int key = -1;            ///< Distinct (problem, options) cache key.
  bool relabelled = false;
  bool use_cache = true;
  qopt::Backend backend = qopt::Backend::kExact;
  /// The problem exactly as sent (relabelled when `relabelled`).
  Instance problem;
  /// Malformed lines: the error code and whether the id is recoverable.
  std::string expected_code;
  bool expect_id = true;
};

struct ServeWorkload {
  std::string params;
  std::vector<Instance> instances;  ///< Base problems (io-loaded at set-up).
  int num_keys = 0;
  std::size_t cache_capacity = 0;
  double rate = 0.0;  ///< Mean Poisson arrival rate, requests per second.
};

ServeWorkload MakeServeStream(std::uint64_t seed);

/// Builds the request lines for the whole run from the loaded base
/// problems: seeded key draws, verbatim and relabelled repeats,
/// cache:false requests, malformed lines and stats barriers.
std::vector<ServeLine> MakeServeLines(const ServeWorkload& workload,
                                      std::uint64_t seed, std::size_t count);

}  // namespace perfbench
