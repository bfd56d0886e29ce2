#include "decompose/partition.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/check.h"
#include "common/random.h"

namespace qopt {

std::vector<std::vector<int>> PartitionQuboVariables(const QuboModel& qubo,
                                                     int max_block_size,
                                                     std::uint64_t seed) {
  const int n = qubo.NumVariables();
  const CsrAdjacency& adjacency = qubo.Rows();
  QOPT_CHECK(max_block_size >= 1);
  std::vector<std::vector<int>> blocks;
  if (n == 0) return blocks;

  // Seeded root order: the only randomized choice. Everything after it is
  // a deterministic function of the rows.
  std::vector<int> roots(static_cast<std::size_t>(n));
  std::iota(roots.begin(), roots.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&roots);

  std::vector<std::uint8_t> assigned(static_cast<std::size_t>(n), 0);
  std::deque<int> frontier;
  for (const int root : roots) {
    if (assigned[static_cast<std::size_t>(root)]) continue;
    std::vector<int> block;
    block.reserve(static_cast<std::size_t>(max_block_size));
    block.push_back(root);
    assigned[static_cast<std::size_t>(root)] = 1;
    frontier.clear();
    frontier.push_back(root);
    while (!frontier.empty() &&
           static_cast<int>(block.size()) < max_block_size) {
      const std::size_t v = static_cast<std::size_t>(frontier.front());
      frontier.pop_front();
      for (std::size_t k = adjacency.offsets[v];
           k < adjacency.offsets[v + 1] &&
           static_cast<int>(block.size()) < max_block_size;
           ++k) {
        const int w = adjacency.neighbors[k];
        if (assigned[static_cast<std::size_t>(w)]) continue;
        assigned[static_cast<std::size_t>(w)] = 1;
        block.push_back(w);
        frontier.push_back(w);
      }
    }
    std::sort(block.begin(), block.end());
    blocks.push_back(std::move(block));
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
  // BFS growth fragments near the end of the root order: late roots find
  // their neighbourhood already assigned and end up in tiny blocks. Pack
  // those leftovers greedily — a clamped subproblem does not require its
  // variables to be connected, and fewer, fuller blocks mean less stitch
  // overhead and a larger joint optimization per solve.
  std::vector<std::vector<int>> packed;
  packed.reserve(blocks.size());
  for (std::vector<int>& block : blocks) {
    if (!packed.empty() &&
        static_cast<int>(packed.back().size() + block.size()) <=
            max_block_size) {
      packed.back().insert(packed.back().end(), block.begin(), block.end());
    } else {
      packed.push_back(std::move(block));
    }
  }
  for (std::vector<int>& block : packed) {
    std::sort(block.begin(), block.end());
  }
  std::sort(packed.begin(), packed.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
  return packed;
}

}  // namespace qopt
