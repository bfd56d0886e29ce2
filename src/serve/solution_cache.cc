#include "serve/solution_cache.h"

#include <algorithm>
#include <cmath>

namespace qopt::serve {
namespace {

/// Relative-tolerance energy check for transported solutions. Isomorphic
/// relabelings re-associate the FP sums, so exact equality is too strict;
/// anything beyond 1e-9 relative means the canonical hash collided on
/// non-isomorphic problems.
bool EnergiesMatch(double a, double b) {
  const double tolerance = 1e-9 * std::max(1.0, std::max(std::abs(a),
                                                         std::abs(b)));
  return std::abs(a - b) <= tolerance;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> TransportCanonicalBits(
    const CacheEntry& entry, const QuboSignature& signature,
    const QuboModel& qubo, double* energy) {
  if (entry.canonical_bits.size() != signature.canonical_rank.size()) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> bits =
      MapBitsFromCanonical(signature, entry.canonical_bits);
  *energy = qubo.Energy(bits);
  if (!EnergiesMatch(*energy, entry.energy)) return std::nullopt;
  return bits;
}

CacheHitKind SolutionCache::Lookup(std::uint64_t canonical_hash,
                                   std::uint64_t options_hash,
                                   std::uint64_t exact_hash,
                                   CacheEntry* entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Key key{canonical_hash, options_hash};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++counters_.misses;
    return CacheHitKind::kMiss;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  *entry = it->second.entry;
  if (it->second.entry.exact_hash == exact_hash) {
    ++counters_.hits_exact;
    return CacheHitKind::kExact;
  }
  ++counters_.hits_isomorphic;
  return CacheHitKind::kIsomorphic;
}

void SolutionCache::Insert(std::uint64_t canonical_hash,
                           std::uint64_t options_hash, CacheEntry entry) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const Key key{canonical_hash, options_hash};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh in place (e.g. cache=false solved past it, then a later
    // request re-inserts): newer bits win, recency bumps.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    it->second.entry = std::move(entry);
    ++counters_.insertions;
    return;
  }
  if (entries_.size() >= capacity_) {
    const Key victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++counters_.evictions;
  }
  lru_.push_front(key);
  entries_.emplace(key, Slot{std::move(entry), lru_.begin()});
  ++counters_.insertions;
}

void SolutionCache::RecordRejection(std::uint64_t canonical_hash,
                                    std::uint64_t options_hash) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.rejections;
  // The isomorphic probe was already counted as a hit; re-classify.
  --counters_.hits_isomorphic;
  ++counters_.misses;
  const Key key{canonical_hash, options_hash};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
}

std::size_t SolutionCache::Size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

CacheCounters SolutionCache::Counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace qopt::serve
