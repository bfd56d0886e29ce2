#pragma once

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.h"
#include "common/deadline.h"
#include "common/stats.h"
#include "common/status.h"
#include "transpile/coupling_map.h"
#include "transpile/swap_router.h"

namespace qopt {

/// Options for the transpilation pipeline (the analogue of Qiskit
/// transpile() at optimization level 1, which the paper uses).
struct TranspileOptions {
  /// Seed for the stochastic swap router.
  std::uint64_t seed = 0;
  /// Swap-routing heuristics (commutation awareness, lookahead).
  RouterOptions router;
  /// Wall-clock budget for the whole pipeline; also composed into the
  /// router's per-gate checks. Unbounded by default.
  Deadline deadline;
};

/// Result of transpiling a logical circuit for a device.
struct TranspileResult {
  QuantumCircuit circuit;            ///< Over physical qubits.
  std::vector<int> initial_layout;   ///< logical -> physical at the start.
  std::vector<int> final_layout;     ///< logical -> physical at the end.
  int depth = 0;                     ///< circuit.Depth(), for convenience.
};

/// Full pipeline: dense layout -> stochastic swap routing -> rewrite into
/// the {RZ, SX, X, CX} device basis -> merging of adjacent RZ rotations.
/// On a fully connected device no swaps are inserted and the layout is
/// trivial. Returns kDeadlineExceeded /
/// kCancelled when `options.deadline` trips mid-pipeline, injected routing
/// faults verbatim.
StatusOr<TranspileResult> TryTranspile(const QuantumCircuit& circuit,
                                       const CouplingMap& coupling,
                                       const TranspileOptions& options = {});

/// Transpiles once per entry of `seeds` (with `base.seed` replaced by the
/// entry) and returns the results indexed like `seeds`. The sweeps run on
/// ThreadPool::Default(); because every result lands in the slot of its
/// seed, the output is identical for any QQO_THREADS setting. Trials not
/// yet started when `base.deadline` trips are skipped and the whole sweep
/// reports kDeadlineExceeded / kCancelled (partial sweeps would bias the
/// depth statistics, so they are not returned).
StatusOr<std::vector<TranspileResult>> TryTranspileManySeeds(
    const QuantumCircuit& circuit, const CouplingMap& coupling,
    const std::vector<std::uint64_t>& seeds,
    const TranspileOptions& base = {});

/// Transpiles `num_trials` times with seeds seed0, seed0+1, ... and
/// summarizes the resulting depths — the "mean circuit depth over 20
/// transpilations" statistic reported throughout the paper's evaluation.
/// Runs the trials through TryTranspileManySeeds (i.e. in parallel).
Summary TranspiledDepthStats(const QuantumCircuit& circuit,
                             const CouplingMap& coupling, int num_trials,
                             std::uint64_t seed0 = 0);

}  // namespace qopt
