#include "anneal/minor_embedder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qopt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Improvement passes per try. Most passes are cheap conflict-driven
/// re-embeddings; every eighth pass re-embeds all nodes.
constexpr int kMaxPasses = 100;
/// Passes without overfill improvement before the try is abandoned.
constexpr int kPatience = 20;
/// Base of the exponential congestion penalty: a physical qubit already
/// used by c chains costs kPenaltyBase^c to route through.
constexpr double kPenaltyBase = 8.0;
/// Congestion exponent cap (keeps weights finite).
constexpr int kMaxPenaltyExponent = 10;
/// At most this many anchored neighbours get a full-graph Dijkstra when
/// selecting a chain root; the rest are connected by early-exit searches.
constexpr int kRootSample = 4;
/// Root-selection Dijkstras stop after settling this many target
/// vertices. Chains are local after the first pass, so a bounded search
/// almost always contains the best root; if the bounded searches do not
/// overlap, the embedder falls back to unbounded ones.
constexpr int kSettleCap = 2500;

/// Working state for one embedding attempt. Implements the vertex-model
/// growth of Cai, Macready & Roy: every logical node owns a chain; nodes
/// are (re-)embedded one at a time along congestion-weighted shortest
/// paths; overlaps are allowed transiently and penalized exponentially.
class Embedder {
 public:
  Embedder(const SimpleGraph& source, const SimpleGraph& target,
           const EmbedOptions& options, std::uint64_t seed)
      : source_(source),
        target_(target),
        options_(options),
        rng_(seed),
        chains_(static_cast<std::size_t>(source.NumVertices())),
        usage_(static_cast<std::size_t>(target.NumVertices()), 0),
        cost_(static_cast<std::size_t>(target.NumVertices()), 1.0) {}

  std::optional<Embedding> Run() {
    std::vector<int> order(static_cast<std::size_t>(source_.NumVertices()));
    for (int u = 0; u < source_.NumVertices(); ++u) {
      order[static_cast<std::size_t>(u)] = u;
    }
    int best_overfill = std::numeric_limits<int>::max();
    int stale_passes = 0;
    // QQO_LOOP(embed.pass)
    for (int pass = 0; pass <= kMaxPasses; ++pass) {
      QQO_COUNT("embed.passes", 1);
      // Budget check per improvement pass: an abandoned attempt looks like
      // an unsuccessful one; the caller re-checks the deadline to tell the
      // two apart.
      if (!options_.deadline.Check().ok()) return std::nullopt;
      if (pass == 0) {
        // First pass: breadth-first order from a random vertex, so every
        // node (except component seeds) is placed next to an already
        // embedded neighbour. Random orders scatter seeds across the
        // fabric and produce very long connecting chains.
        order = BfsOrder();
        for (int u : order) EmbedNode(u);
      } else if (pass % 8 == 0) {
        // Periodic full pass: re-embed everything so that conflict-free
        // but wasteful chains can also shrink and free up space.
        rng_.Shuffle(&order);
        for (int u : order) EmbedNode(u);
      } else {
        // Conflict-driven pass: nodes whose chains touch an overfilled
        // qubit, plus their source-graph neighbours (to make room), are
        // re-embedded. These passes are cheap, so many fit in the budget.
        std::vector<int> conflicted = ConflictedNodes();
        // Neighbour expansion below appends at most every vertex once.
        conflicted.reserve(static_cast<std::size_t>(source_.NumVertices()));
        std::vector<bool> in_set(
            static_cast<std::size_t>(source_.NumVertices()), false);
        for (int u : conflicted) in_set[static_cast<std::size_t>(u)] = true;
        const std::size_t direct = conflicted.size();
        for (std::size_t i = 0; i < direct; ++i) {
          for (int v : source_.Neighbors(conflicted[i])) {
            if (!in_set[static_cast<std::size_t>(v)]) {
              in_set[static_cast<std::size_t>(v)] = true;
              conflicted.push_back(v);
            }
          }
        }
        rng_.Shuffle(&conflicted);
        for (int u : conflicted) EmbedNode(u);
      }
      const int overfill = Overfill();
      if (overfill == 0) {
        TrimChains();
        Embedding embedding;
        embedding.chains = chains_;
        return embedding;
      }
      if (overfill < best_overfill) {
        best_overfill = overfill;
        stale_passes = 0;
      } else if (++stale_passes >= kPatience) {
        break;
      } else if (stale_passes == kPatience / 2) {
        Shake();
      }
    }
    return std::nullopt;
  }

  /// Ruin-and-recreate move for stuck configurations: tear out the chains
  /// of every conflicted node and its source neighbours at once, then
  /// re-embed the region breadth-first. Unlike one-at-a-time re-embedding
  /// (which keeps seeing the same congested chains), this frees the whole
  /// contested area before rebuilding it.
  void Shake() {
    std::vector<int> region = ConflictedNodes();
    std::vector<bool> in_region(
        static_cast<std::size_t>(source_.NumVertices()), false);
    for (int u : region) in_region[static_cast<std::size_t>(u)] = true;
    const std::size_t direct = region.size();
    for (std::size_t i = 0; i < direct; ++i) {
      for (int v : source_.Neighbors(region[i])) {
        if (!in_region[static_cast<std::size_t>(v)]) {
          in_region[static_cast<std::size_t>(v)] = true;
          region.push_back(v);
        }
      }
    }
    for (int u : region) RemoveChain(u);
    // Re-embed anchored-first so freshly placed nodes always attach to
    // existing chains instead of being scattered across the fabric.
    rng_.Shuffle(&region);
    std::vector<bool> pending(static_cast<std::size_t>(source_.NumVertices()),
                              false);
    for (int u : region) pending[static_cast<std::size_t>(u)] = true;
    for (std::size_t done = 0; done < region.size(); ++done) {
      int best = -1;
      int best_anchors = -1;
      for (int u : region) {
        if (!pending[static_cast<std::size_t>(u)]) continue;
        int anchors = 0;
        for (int v : source_.Neighbors(u)) {
          if (!chains_[static_cast<std::size_t>(v)].empty()) ++anchors;
        }
        if (anchors > best_anchors) {
          best_anchors = anchors;
          best = u;
        }
      }
      pending[static_cast<std::size_t>(best)] = false;
      EmbedNode(best);
    }
  }

 private:
  /// Source vertices in BFS order from a random start; unreached
  /// components continue with fresh random seeds.
  std::vector<int> BfsOrder() {
    const int n = source_.NumVertices();
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    std::vector<int> shuffled(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) shuffled[static_cast<std::size_t>(u)] = u;
    rng_.Shuffle(&shuffled);
    for (int seed : shuffled) {
      if (seen[static_cast<std::size_t>(seed)]) continue;
      std::size_t frontier = order.size();
      seen[static_cast<std::size_t>(seed)] = true;
      order.push_back(seed);
      while (frontier < order.size()) {
        const int u = order[frontier++];
        for (int v : source_.Neighbors(u)) {
          if (!seen[static_cast<std::size_t>(v)]) {
            seen[static_cast<std::size_t>(v)] = true;
            order.push_back(v);
          }
        }
      }
    }
    return order;
  }

  double PenaltyFor(int usage) const {
    const int exponent = std::min(usage, kMaxPenaltyExponent);
    return std::pow(kPenaltyBase, exponent);
  }

  void SetUsage(int p, int delta) {
    int& u = usage_[static_cast<std::size_t>(p)];
    u += delta;
    QOPT_CHECK(u >= 0);
    cost_[static_cast<std::size_t>(p)] = PenaltyFor(u);
  }

  void RemoveChain(int u) {
    for (int p : chains_[static_cast<std::size_t>(u)]) SetUsage(p, -1);
    chains_[static_cast<std::size_t>(u)].clear();
  }

  void AssignChain(int u, std::vector<int> chain) {
    std::sort(chain.begin(), chain.end());
    chain.erase(std::unique(chain.begin(), chain.end()), chain.end());
    for (int p : chain) SetUsage(p, +1);
    chains_[static_cast<std::size_t>(u)] = std::move(chain);
  }

  int Overfill() const {
    int overfill = 0;
    for (int c : usage_) overfill += std::max(0, c - 1);
    return overfill;
  }

  /// Source nodes whose chains use at least one overfilled qubit.
  std::vector<int> ConflictedNodes() const {
    std::vector<int> nodes;
    for (int u = 0; u < source_.NumVertices(); ++u) {
      for (int p : chains_[static_cast<std::size_t>(u)]) {
        if (usage_[static_cast<std::size_t>(p)] > 1) {
          nodes.push_back(u);
          break;
        }
      }
    }
    return nodes;
  }

  /// Congestion-weighted multi-source Dijkstra over the target. Path cost
  /// = sum of cost_ over non-source vertices on the path. The search stops
  /// once `settle_cap` vertices are settled (> 0); unsettled vertices keep
  /// an infinite distance in `dist` so callers ignore them. Settled
  /// vertices always have settled parents, so path walks stay valid.
  void FullDijkstra(const std::vector<int>& sources, int settle_cap,
                    std::vector<double>* dist, std::vector<int>* parent) {
    const std::size_t n = static_cast<std::size_t>(target_.NumVertices());
    dist->assign(n, kInf);
    parent->assign(n, -1);
    settled_.assign(n, 0);
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (int s : sources) {
      (*dist)[static_cast<std::size_t>(s)] = 0.0;
      heap.emplace(0.0, s);
    }
    int settled_count = 0;
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > (*dist)[static_cast<std::size_t>(v)]) continue;
      if (settled_[static_cast<std::size_t>(v)]) continue;
      settled_[static_cast<std::size_t>(v)] = 1;
      if (settle_cap > 0 && ++settled_count >= settle_cap) break;
      for (int w : target_.Neighbors(v)) {
        const double candidate = d + cost_[static_cast<std::size_t>(w)];
        if (candidate < (*dist)[static_cast<std::size_t>(w)]) {
          (*dist)[static_cast<std::size_t>(w)] = candidate;
          (*parent)[static_cast<std::size_t>(w)] = v;
          heap.emplace(candidate, w);
        }
      }
    }
    // Tentative (unsettled) entries would have unsettled parents; wipe
    // them so only the settled region is visible.
    for (std::size_t v = 0; v < n; ++v) {
      if (!settled_[v] && (*dist)[v] != kInf) {
        (*dist)[v] = kInf;
        (*parent)[v] = -1;
      }
    }
  }

  /// Early-exit Dijkstra from `sources` that stops at the first settled
  /// vertex owned by `goal_owner` (per `goal_mask`). Appends the interior
  /// of the found path (excluding both endpoint chains) to `out` and
  /// returns true; returns false if unreachable.
  bool ConnectToChain(const std::vector<int>& sources,
                      const std::vector<bool>& goal_mask,
                      std::vector<int>* out) {
    const std::size_t n = static_cast<std::size_t>(target_.NumVertices());
    scratch_dist_.assign(n, kInf);
    scratch_parent_.assign(n, -1);
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (int s : sources) {
      // A source that is already in the goal chain means the chains touch.
      if (goal_mask[static_cast<std::size_t>(s)]) return true;
      scratch_dist_[static_cast<std::size_t>(s)] = 0.0;
      heap.emplace(0.0, s);
    }
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > scratch_dist_[static_cast<std::size_t>(v)]) continue;
      if (goal_mask[static_cast<std::size_t>(v)]) {
        // Reconstruct: v is in the goal chain; its ancestors up to (but
        // excluding) the source belong to the new chain.
        int cur = scratch_parent_[static_cast<std::size_t>(v)];
        while (cur != -1 && scratch_parent_[static_cast<std::size_t>(cur)] != -1) {
          out->push_back(cur);
          cur = scratch_parent_[static_cast<std::size_t>(cur)];
        }
        return true;
      }
      for (int w : target_.Neighbors(v)) {
        const double candidate = d + cost_[static_cast<std::size_t>(w)];
        if (candidate < scratch_dist_[static_cast<std::size_t>(w)]) {
          scratch_dist_[static_cast<std::size_t>(w)] = candidate;
          scratch_parent_[static_cast<std::size_t>(w)] = v;
          heap.emplace(candidate, w);
        }
      }
    }
    return false;
  }

  void EmbedNode(int u) {
    RemoveChain(u);

    std::vector<int> anchored;
    for (int w : source_.Neighbors(u)) {
      if (!chains_[static_cast<std::size_t>(w)].empty()) anchored.push_back(w);
    }

    if (anchored.empty()) {
      // Free placement: cheapest physical qubit, random among ties.
      double best = kInf;
      std::vector<int> ties;
      for (int p = 0; p < target_.NumVertices(); ++p) {
        const double c = cost_[static_cast<std::size_t>(p)];
        if (c < best - 1e-12) {
          best = c;
          ties.assign(1, p);
        } else if (c < best + 1e-12) {
          ties.push_back(p);
        }
      }
      AssignChain(u, {ties[rng_.NextUint64(ties.size())]});
      return;
    }

    rng_.Shuffle(&anchored);
    const int num_roots = std::min<int>(kRootSample,
                                        static_cast<int>(anchored.size()));

    // Root selection: full Dijkstra from the first num_roots anchor
    // chains; the root g minimizes the total congestion-weighted cost of
    // connecting to all of them (g's own cost counted once).
    std::vector<std::vector<double>> dists(
        static_cast<std::size_t>(num_roots));
    std::vector<std::vector<int>> parents(static_cast<std::size_t>(num_roots));
    for (int a = 0; a < num_roots; ++a) {
      FullDijkstra(chains_[static_cast<std::size_t>(
                       anchored[static_cast<std::size_t>(a)])],
                   kSettleCap,
                   &dists[static_cast<std::size_t>(a)],
                   &parents[static_cast<std::size_t>(a)]);
    }
    double best_total = kInf;
    std::vector<int> root_ties;
    for (int g = 0; g < target_.NumVertices(); ++g) {
      double total =
          -static_cast<double>(num_roots - 1) * cost_[static_cast<std::size_t>(g)];
      bool reachable = true;
      for (int a = 0; a < num_roots; ++a) {
        const double d = dists[static_cast<std::size_t>(a)][static_cast<std::size_t>(g)];
        if (d == kInf) {
          reachable = false;
          break;
        }
        total += d == 0.0 ? cost_[static_cast<std::size_t>(g)] : d;
      }
      if (!reachable) continue;
      if (total < best_total - 1e-12) {
        best_total = total;
        root_ties.assign(1, g);
      } else if (total < best_total + 1e-12) {
        root_ties.push_back(g);
      }
    }
    if (root_ties.empty()) {
      // The capped searches did not overlap; redo them unbounded (rare).
      for (int a = 0; a < num_roots; ++a) {
        FullDijkstra(chains_[static_cast<std::size_t>(
                         anchored[static_cast<std::size_t>(a)])],
                     /*settle_cap=*/0,
                     &dists[static_cast<std::size_t>(a)],
                     &parents[static_cast<std::size_t>(a)]);
      }
      for (int g = 0; g < target_.NumVertices(); ++g) {
        double total = -static_cast<double>(num_roots - 1) *
                       cost_[static_cast<std::size_t>(g)];
        bool reachable = true;
        for (int a = 0; a < num_roots; ++a) {
          const double d =
              dists[static_cast<std::size_t>(a)][static_cast<std::size_t>(g)];
          if (d == kInf) {
            reachable = false;
            break;
          }
          total += d == 0.0 ? cost_[static_cast<std::size_t>(g)] : d;
        }
        if (!reachable) continue;
        if (total < best_total - 1e-12) {
          best_total = total;
          root_ties.assign(1, g);
        } else if (total < best_total + 1e-12) {
          root_ties.push_back(g);
        }
      }
    }
    QOPT_CHECK_MSG(!root_ties.empty(), "target graph is disconnected");
    const int root = root_ties[rng_.NextUint64(root_ties.size())];

    std::vector<int> chain = {root};
    for (int a = 0; a < num_roots; ++a) {
      int cur = root;
      // Walk toward the anchor chain; stop before entering it (sources
      // have parent -1 and distance 0).
      while (true) {
        const int p = parents[static_cast<std::size_t>(a)][static_cast<std::size_t>(cur)];
        if (p == -1) break;  // cur is in the anchor chain or is the root
        if (parents[static_cast<std::size_t>(a)][static_cast<std::size_t>(p)] == -1 &&
            dists[static_cast<std::size_t>(a)][static_cast<std::size_t>(p)] == 0.0) {
          break;  // p is an anchor-chain vertex
        }
        chain.push_back(p);
        cur = p;
      }
    }

    // Connect the remaining anchors with early-exit searches from the
    // chain grown so far.
    std::vector<bool> goal_mask(static_cast<std::size_t>(target_.NumVertices()),
                                false);
    for (std::size_t a = static_cast<std::size_t>(num_roots);
         a < anchored.size(); ++a) {
      const auto& goal_chain = chains_[static_cast<std::size_t>(anchored[a])];
      for (int p : goal_chain) goal_mask[static_cast<std::size_t>(p)] = true;
      const bool ok = ConnectToChain(chain, goal_mask, &chain);
      QOPT_CHECK_MSG(ok, "target graph is disconnected");
      for (int p : goal_chain) goal_mask[static_cast<std::size_t>(p)] = false;
    }

    AssignChain(u, std::move(chain));
  }

  /// Post-pass on a valid (overlap-free) embedding: drop chain vertices
  /// that are needed neither for chain connectivity nor for covering an
  /// incident source edge.
  void TrimChains() {
    // owner[p] = logical node whose chain contains p (-1 if unused).
    std::vector<int> owner(static_cast<std::size_t>(target_.NumVertices()), -1);
    for (int u = 0; u < source_.NumVertices(); ++u) {
      for (int p : chains_[static_cast<std::size_t>(u)]) {
        owner[static_cast<std::size_t>(p)] = u;
      }
    }
    auto edge_covered = [&](int u, int w,
                            const std::vector<int>& chain) {
      for (int p : chain) {
        for (int q : target_.Neighbors(p)) {
          if (owner[static_cast<std::size_t>(q)] == w) return true;
        }
      }
      (void)u;
      return false;
    };
    bool changed = true;
    while (changed) {
      changed = false;
      for (int u = 0; u < source_.NumVertices(); ++u) {
        auto& chain = chains_[static_cast<std::size_t>(u)];
        if (chain.size() <= 1) continue;
        for (std::size_t idx = 0; idx < chain.size();) {
          const int p = chain[idx];
          std::vector<int> tentative = chain;
          tentative.erase(tentative.begin() + static_cast<std::ptrdiff_t>(idx));
          bool removable = target_.IsConnectedSubset(tentative);
          if (removable) {
            owner[static_cast<std::size_t>(p)] = -1;
            for (int w : source_.Neighbors(u)) {
              if (!edge_covered(u, w, tentative)) {
                removable = false;
                break;
              }
            }
            if (!removable) owner[static_cast<std::size_t>(p)] = u;
          }
          if (removable) {
            SetUsage(p, -1);
            chain = std::move(tentative);
            changed = true;
          } else {
            ++idx;
          }
          if (chain.size() <= 1) break;
        }
      }
    }
  }

  const SimpleGraph& source_;
  const SimpleGraph& target_;
  const EmbedOptions& options_;
  Rng rng_;
  std::vector<std::vector<int>> chains_;
  std::vector<int> usage_;
  std::vector<double> cost_;
  std::vector<double> scratch_dist_;
  std::vector<int> scratch_parent_;
  std::vector<char> settled_;
};

}  // namespace

StatusOr<Embedding> TryFindMinorEmbedding(const SimpleGraph& source,
                                          const SimpleGraph& target,
                                          const EmbedOptions& options) {
  QQO_TRACE_SPAN("embed.solve");
  if (options.tries < 1) {
    return InvalidArgumentError(
        StrFormat("embedding needs tries >= 1, got %d", options.tries));
  }
  if (source.NumVertices() == 0) return Embedding{};
  if (target.NumVertices() == 0) {
    return UnavailableError("target graph is empty");
  }
  if (source.NumVertices() > target.NumVertices()) {
    return UnavailableError(
        "source graph has more vertices than the target");
  }
  // QQO_LOOP(embed.attempt)
  for (int attempt = 0; attempt < options.tries; ++attempt) {
    QQO_TRACE_SPAN("embed.attempt");
    QQO_COUNT("embed.attempts", 1);
    QOPT_RETURN_IF_ERROR(options.deadline.Check());
    if (Status fault = CheckFaultPoint("embedder.attempt"); !fault.ok()) {
      // A retryable injected fault only consumes this attempt; the next
      // re-seeded attempt still runs — the recovery path the fault site
      // exists to exercise.
      if (IsRetryableStatus(fault.code())) continue;
      return fault;
    }
    Embedder embedder(source, target, options,
                      options.seed + 0x9E37u * static_cast<std::uint64_t>(attempt));
    std::optional<Embedding> embedding = embedder.Run();
    // An attempt abandoned by the deadline is indistinguishable from an
    // unsuccessful one here; surface the budget as the real cause.
    QOPT_RETURN_IF_ERROR(options.deadline.Check());
    if (embedding.has_value()) {
      // NOLINTNEXTLINE(qqo-hot-loop-alloc): success path, runs at most once
      std::string error;
      QOPT_CHECK_MSG(ValidateEmbedding(source, target, *embedding, &error),
                     error.c_str());
      return *std::move(embedding);
    }
  }
  return UnavailableError(StrFormat(
      "no minor embedding found within %d tries", options.tries));
}

std::vector<std::optional<Embedding>> FindMinorEmbeddingManySeeds(
    const SimpleGraph& source, const SimpleGraph& target,
    const std::vector<std::uint64_t>& seeds, const EmbedOptions& base) {
  std::vector<std::optional<Embedding>> results(seeds.size());
  ThreadPool::Default()
      .ParallelFor(seeds.size(), base.deadline,
                   [&](std::size_t i) {
                     EmbedOptions options = base;
                     options.seed = seeds[i];
                     StatusOr<Embedding> embedding =
                         TryFindMinorEmbedding(source, target, options);
                     if (embedding.ok()) results[i] = *std::move(embedding);
                   })
      .IgnoreError();  // skipped seeds simply stay std::nullopt
  return results;
}

}  // namespace qopt
