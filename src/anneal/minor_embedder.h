#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "anneal/embedding.h"
#include "common/deadline.h"
#include "common/status.h"
#include "graph/simple_graph.h"

namespace qopt {

/// Options for the heuristic minor embedder.
struct EmbedOptions {
  /// Independent restarts with fresh random vertex orders.
  int tries = 3;
  std::uint64_t seed = 0;
  /// Wall-clock budget, checked at every improvement-pass boundary of
  /// every try. Unbounded by default.
  Deadline deadline;
};

/// Heuristic minor embedding in the style of minorminer (Cai, Macready &
/// Roy 2014): vertex models are grown along congestion-weighted shortest
/// paths, overused qubits are penalized exponentially, and nodes are
/// re-embedded in random order until no physical qubit is shared.
///
/// Each of the `options.tries` attempts re-seeds the heuristic before
/// running; the "embedder.attempt" fault point fires once per attempt, and
/// a retryable injected fault (kUnavailable) merely consumes that attempt —
/// the next re-seeded attempt still runs. Returns:
///   - kInvalidArgument, before any attempt, for tries < 1,
///   - the embedding on success,
///   - kUnavailable when every attempt failed (the paper's Fig. 14
///     "embedding not reliably found" outcome),
///   - kDeadlineExceeded / kCancelled when the budget ran out first,
///   - any non-retryable injected fault verbatim.
StatusOr<Embedding> TryFindMinorEmbedding(const SimpleGraph& source,
                                          const SimpleGraph& target,
                                          const EmbedOptions& options = {});

/// Runs one TryFindMinorEmbedding per entry of `seeds` (with `base.seed`
/// replaced by the entry) and returns the outcomes indexed like `seeds`,
/// std::nullopt for every seed that found no embedding — the multi-seed
/// sweep behind the paper's embedding-reliability figures.
/// Attempts run on ThreadPool::Default(); results are independent of the
/// QQO_THREADS setting because each attempt has its own seed and slot.
/// `base.deadline` is honored: attempts not yet started when it trips are
/// skipped and report std::nullopt.
std::vector<std::optional<Embedding>> FindMinorEmbeddingManySeeds(
    const SimpleGraph& source, const SimpleGraph& target,
    const std::vector<std::uint64_t>& seeds, const EmbedOptions& base = {});

}  // namespace qopt
