#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qubo/qubo_canonical.h"
#include "qubo/qubo_model.h"

namespace qopt::serve {

/// What a cache probe found.
enum class CacheHitKind {
  kMiss,        ///< No entry (or a rejected one); solve for real.
  kExact,       ///< Same labeled QUBO: replay the stored payload verbatim.
  kIsomorphic,  ///< Same canonical form, different labeling: transport the
                ///< stored canonical bits through the probe's rank mapping
                ///< and RE-VERIFY (energy + decode) before trusting them —
                ///< the canonical hash is WL-based, not a GI decision.
};

/// One cached solution keyed by canonical form.
struct CacheEntry {
  std::uint64_t exact_hash = 0;  ///< Labeled hash of the inserting QUBO.
  /// Solution bits in canonical variable order (MapBitsToCanonical of the
  /// inserting request's bits), so any isomorphic labeling can project
  /// them back out with its own rank vector.
  std::vector<std::uint8_t> canonical_bits;
  double energy = 0.0;  ///< QUBO energy the bits achieved at insert time.
  /// Serialized result payload of the inserting request, replayed
  /// byte-identically on exact hits.
  std::string payload;
};

/// Transports an isomorphic hit onto the probing QUBO: reads the entry's
/// canonical bits back into `signature`'s labeling and re-checks their
/// energy on `qubo`, which it stores in *energy. The canonical hash does
/// not prove isomorphism, so an entry of another variable count or another
/// energy is a hash collision: nullopt, for the caller to reject.
std::optional<std::vector<std::uint8_t>> TransportCanonicalBits(
    const CacheEntry& entry, const QuboSignature& signature,
    const QuboModel& qubo, double* energy);

/// Monotonic counters for the stats payload (obs metrics mirror the hit /
/// miss pair; the rest are cache internals).
struct CacheCounters {
  long long hits_exact = 0;
  long long hits_isomorphic = 0;
  long long misses = 0;
  long long insertions = 0;
  long long evictions = 0;
  /// Isomorphic candidates whose transported bits failed verification in
  /// the server (energy mismatch / decode failure). Counted as misses in
  /// the hit/miss pair; tracked separately because a nonzero value means
  /// the WL hash collided on non-isomorphic problems.
  long long rejections = 0;
};

/// Bounded LRU cache of QUBO solutions keyed by
/// (canonical_hash, options_hash). Thread-safe: the server's worker
/// threads probe and insert concurrently. Capacity 0 disables caching
/// (every probe is a miss, inserts are dropped).
///
/// The cache is deliberately oblivious to solver semantics: the caller
/// decides what goes into options_hash (backend, dispatch, seed, ... —
/// anything that changes the answer) and performs the isomorphic-hit
/// verification, reporting failures back via RecordRejection.
class SolutionCache {
 public:
  explicit SolutionCache(std::size_t capacity) : capacity_(capacity) {}

  SolutionCache(const SolutionCache&) = delete;
  SolutionCache& operator=(const SolutionCache&) = delete;

  /// Probes for (canonical_hash, options_hash). On a hit, copies the
  /// entry into *entry, marks it most-recently-used and returns kExact
  /// when `exact_hash` matches the stored labeled hash, kIsomorphic
  /// otherwise. Counts the probe.
  CacheHitKind Lookup(std::uint64_t canonical_hash,
                      std::uint64_t options_hash, std::uint64_t exact_hash,
                      CacheEntry* entry);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// entry when the cache is full. No-op at capacity 0.
  void Insert(std::uint64_t canonical_hash, std::uint64_t options_hash,
              CacheEntry entry);

  /// The server failed to verify an isomorphic hit: demote the probe to a
  /// miss in the counters and drop the poisoned entry so it cannot serve
  /// further false hits.
  void RecordRejection(std::uint64_t canonical_hash,
                       std::uint64_t options_hash);

  std::size_t Size() const;
  std::size_t Capacity() const { return capacity_; }
  CacheCounters Counters() const;

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  struct Slot {
    CacheEntry entry;
    std::list<Key>::iterator lru_pos;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::map<Key, Slot> entries_;
  std::list<Key> lru_;  ///< Front = most recent, back = eviction victim.
  CacheCounters counters_;
};

}  // namespace qopt::serve
