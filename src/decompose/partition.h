#pragma once

#include <cstdint>
#include <vector>

#include "qubo/qubo_model.h"

namespace qopt {

/// Seeded block partition of a QUBO's variables for hybrid decomposition
/// (qbsolv-style): blocks of at most `max_block_size` variables, grown by
/// breadth-first search over the coefficient adjacency so that strongly
/// coupled variables land in the same subproblem whenever they fit.
///
/// Properties the decomposer relies on:
///   - Every variable appears in exactly one block (a partition, not a
///     cover), so clamping the complement of a block to the incumbent
///     yields a well-defined subproblem.
///   - Deterministic: depends only on (rows, max_block_size, seed).
///     Root visit order is a seeded shuffle; BFS expands neighbors in
///     row order, which is sorted by variable index. Different seeds move
///     the block boundaries, which is what lets successive decomposition
///     rounds escape the previous round's frozen cut.
///   - Canonical output order: each block is sorted ascending and blocks
///     are ordered by their smallest variable, so downstream iteration
///     (parallel subproblem solves indexed by block, serial stitching) is
///     reproducible at any thread count.
///
/// `max_block_size` >= 1; isolated variables become singleton blocks.
std::vector<std::vector<int>> PartitionQuboVariables(const QuboModel& qubo,
                                                     int max_block_size,
                                                     std::uint64_t seed);

}  // namespace qopt
