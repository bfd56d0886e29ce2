#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/quantum_optimizer.h"
#include "inputs.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "qubo/qubo_model.h"
#include "spans.h"

namespace perfbench {

/// The benchmark's own encoding of an instance, built outside every timed
/// region and held only while one report is checked: the reference the
/// facade's energies and decodes are checked against.
struct OwnEncoding {
  qopt::QuboModel qubo;
  std::optional<qopt::JoinOrderEncoding> join;  ///< Join instances only.
};
OwnEncoding EncodeForChecks(const Instance& instance,
                            const qopt::JoinOrderEncoderOptions& encoder);

/// Outcome of one facade solve plus its output checks.
struct SolveResult {
  bool ok = false;     ///< Facade returned OK and every check passed.
  std::string error;   ///< Status or failed check when !ok.
  bool valid = false;  ///< Decoded to a valid selection / permutation.
  double cost = 0.0;
  double ratio = -1.0;  ///< cost / optimum; < 0 when no reference.
  double wall_ms = 0.0;
  int qubits = 0;
  int quadratic_terms = 0;
  qopt::SolveStats stats;
  bool degraded = false;
  std::string digest;  ///< Report digest, timing left out.
};

/// Runs TrySolveMqo / TrySolveJoinOrder on `instance`. The cost is never
/// below the exact optimum; with `check` the report is also checked against
/// the benchmark's own encoding, built after the timed call and dropped
/// before return: energy == Energy(bits), the decode and its cost
/// recomputed. A report that repeats an already checked one (same digest)
/// needs no `check`.
SolveResult SolveAndCheck(const Instance& instance,
                          const qopt::JoinOrderEncoderOptions& encoder,
                          const qopt::OptimizerOptions& options, bool check);

/// Standalone per-layer times of one op in the traced run (ms).
struct LayerCall {
  double facade_ms = 0.0;  ///< Traced facade call.
  double untraced_ms = 0.0;  ///< The same facade call with tracing off.
  double encode_ms = 0.0;  ///< mqo.encode or joinorder.encode + bilp.to_qubo.
  double kernel_ms = 0.0;  ///< Backend kernel (incl. decomposition/fallback).
  double decode_ms = 0.0;
  bool replica_matches = false;  ///< Standalone bits == facade bits.
};

/// Counters the traced pipeline accumulates for the per-layer rows.
struct LayerCounters {
  std::map<std::string, std::vector<double>> samples;  ///< Row -> values.
  void Add(const std::string& row, double value) {
    samples[row].push_back(value);
  }
};

/// Traced op: the facade call untraced, the facade call traced (obs::Tracer
/// armed around it only) and the same pipeline as standalone public calls,
/// each in a span: encode, kernel (with the options and seed the facade
/// passes; a raced solve replays its winning lane), decode. `facade_first`
/// runs them in that order, else in reverse, so alternating it cancels the
/// warm-cache bias of running one after another.
LayerCall TracedSolve(const Instance& instance,
                      const qopt::JoinOrderEncoderOptions& encoder,
                      const qopt::OptimizerOptions& options, bool facade_first,
                      SpanRecorder* recorder, LayerCounters* counters);

/// Layer probes outside the facade accounting: minor embedding onto the
/// annealer's Pegasus fabric, the exact QUBO oracle, canonical hashing and
/// serve-request parsing, on `instance`.
void ProbeLayers(const Instance& instance, const OwnEncoding& own,
                 const qopt::OptimizerOptions& options, bool embed, bool exact,
                 LayerCounters* counters);

}  // namespace perfbench
