#include "anneal/simulated_annealer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <new>
#include <span>

// x86-64 GCC/Clang ELF builds compile the AVX2 and AVX-512 read-pack
// kernels.
#if defined(__GNUC__) && defined(__ELF__) && defined(__x86_64__)
#include <immintrin.h>
#define QQO_SA_LANE_PACKS 1
#endif

#include "anneal/anneal_internal.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qopt {
namespace {

/// One coupling c_ij between two members i < j of a flip group.
struct GroupCoupling {
  int i = 0;
  int j = 0;
  double coeff = 0.0;
};

/// Sweep-kernel view of the QUBO, shared read-only by every read.
///
/// The proposal loop never touches adjacency at all: it maintains a
/// per-variable local field
///
///   local_field[i] = linear_i + sum_j c_ij * bits[j]
///
/// so the energy delta of flipping bit i is +-local_field[i] — an O(1)
/// lookup per proposal. Only an *accepted* flip pays O(degree(i)) to push
/// the change into its neighbors' fields (the dwave-neal scheme; the old
/// code rescanned the adjacency row on every proposal).
///
/// Two field-update layouts, chosen deterministically from the problem
/// shape: CSR rows (index-sorted, one contiguous coefficient stream per
/// variable) for sparse problems, and full dense coefficient rows for
/// dense ones, where the unit-stride `field[j] += sign * row[j]` pass over
/// all n columns vectorizes and out-runs the gather through a CSR row.
///
/// Group moves get their inside-group couplings precomputed: group g's
/// (i, j, c_ij) with j > i, in member order and then CSR row order, span
/// group_couplings[group_offsets[g] .. group_offsets[g + 1]).
struct SweepGraph {
  const CsrAdjacency& csr;  ///< The QUBO's own rows.
  int n = 0;
  bool dense = false;
  std::vector<double> linear = {};
  std::vector<double> rows = {};  ///< n*n, row-major, 0.0 where no coupling.
  std::vector<std::size_t> group_offsets = {};
  std::vector<GroupCoupling> group_couplings = {};

  std::span<const GroupCoupling> GroupCouplings(std::size_t g) const {
    return {group_couplings.data() + group_offsets[g],
            group_couplings.data() + group_offsets[g + 1]};
  }
};

/// Dense rows win once enough of the row is populated that the contiguous
/// pass beats the CSR gather; the variable cap bounds the n*n buffer
/// (2048^2 doubles = 32 MiB).
constexpr double kDenseRowThreshold = 0.35;
constexpr int kDenseRowMaxVars = 2048;

StatusOr<SweepGraph> BuildSweepGraph(
    const QuboModel& qubo, const std::vector<std::vector<int>>& groups) {
  SweepGraph graph{.csr = qubo.Rows(), .n = qubo.NumVariables()};
  graph.linear.resize(static_cast<std::size_t>(graph.n));
  for (int i = 0; i < graph.n; ++i) {
    graph.linear[static_cast<std::size_t>(i)] = qubo.Linear(i);
  }
  graph.dense =
      graph.n >= 2 && graph.n <= kDenseRowMaxVars &&
      qubo.Density() >= kDenseRowThreshold;
  if (graph.dense) {
    const std::size_t n = static_cast<std::size_t>(graph.n);
    graph.rows.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = graph.csr.offsets[i]; k < graph.csr.offsets[i + 1];
           ++k) {
        graph.rows[i * n +
                   static_cast<std::size_t>(graph.csr.neighbors[k])] =
            graph.csr.coeffs[k];
      }
    }
  }
  // The coupling lists assume distinct members: a duplicate would be
  // counted twice by GroupDelta yet flipped back by CommitGroup, and the
  // tracked energy would drift from Energy(bits).
  std::vector<std::uint8_t> in_group(static_cast<std::size_t>(graph.n), 0);
  graph.group_offsets.push_back(0);
  for (const auto& group : groups) {
    for (int i : group) {
      if (i < 0 || i >= graph.n || in_group[static_cast<std::size_t>(i)]) {
        return InvalidArgumentError(StrFormat(
            "flip group member %d is out of range or repeated", i));
      }
      in_group[static_cast<std::size_t>(i)] = 1;
    }
    for (int i : group) {
      const std::size_t idx = static_cast<std::size_t>(i);
      for (std::size_t k = graph.csr.offsets[idx];
           k < graph.csr.offsets[idx + 1]; ++k) {
        const int j = graph.csr.neighbors[k];
        // j > i lists each inside-group edge exactly once.
        if (j > i && in_group[static_cast<std::size_t>(j)]) {
          graph.group_couplings.push_back({i, j, graph.csr.coeffs[k]});
        }
      }
    }
    for (int i : group) in_group[static_cast<std::size_t>(i)] = 0;
    graph.group_offsets.push_back(graph.group_couplings.size());
  }
  return graph;
}

/// Derives a default inverse-temperature range from the problem's energy
/// scale, mirroring dwave-neal: hot enough that the largest single-flip
/// barrier is accepted with probability ~1/2, cold enough that the
/// smallest non-zero barrier is frozen out.
std::pair<double, double> DefaultBetaRange(const SweepGraph& graph) {
  // Hot end: the largest single-flip barrier must be crossable with
  // probability ~1/2. Cold end: the smallest non-zero coefficient — the
  // finest energy scale in the problem — must be frozen out, so that
  // penalty-dominated problems (where every variable also carries huge
  // constraint terms) still resolve their small objective differences.
  double max_delta = 0.0;
  double min_coeff = std::numeric_limits<double>::infinity();
  for (int i = 0; i < graph.n; ++i) {
    const double linear = std::abs(graph.linear[static_cast<std::size_t>(i)]);
    double scale = linear;
    if (linear > 0.0) min_coeff = std::min(min_coeff, linear);
    for (std::size_t k = graph.csr.offsets[static_cast<std::size_t>(i)];
         k < graph.csr.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const double coeff = graph.csr.coeffs[k];
      scale += std::abs(coeff);
      if (coeff != 0.0) min_coeff = std::min(min_coeff, std::abs(coeff));
    }
    max_delta = std::max(max_delta, scale);
  }
  if (max_delta == 0.0) return {0.1, 1.0};  // constant objective
  const double beta_min = std::log(2.0) / max_delta;
  const double beta_max = std::log(100.0) / std::max(min_coeff, 1e-9);
  return {beta_min, std::max(beta_max, beta_min * 2.0)};
}

/// Independent RNG stream per read (splitmix64 finalizer over seed and
/// read index). Decoupling the reads from one shared sequential stream is
/// what lets them run in parallel while staying deterministic: read r sees
/// the same randomness no matter how many threads execute the sweep.
std::uint64_t ReadSeed(std::uint64_t seed, int read) {
  return Mix64(seed +
               kSplitMixGamma * (static_cast<std::uint64_t>(read) + 1));
}

/// Per-read mutable state. The buffers live in a thread_local arena (one
/// per pool worker) and are fully re-initialized by Reset() for each read
/// — the PR-1 Reset() reuse pattern — so steady-state reads allocate
/// nothing. Determinism is unaffected by the reuse: every cell a read
/// observes is overwritten before use, and reads never share state.
struct ReadState {
  std::vector<std::uint8_t> bits;
  std::vector<double> local_field;
  double energy = 0.0;

  void Reset(const SweepGraph& graph, const QuboModel& qubo, Rng* rng) {
    const std::size_t n = static_cast<std::size_t>(graph.n);
    bits.resize(n);
    for (auto& b : bits) b = rng->NextBool() ? 1 : 0;
    energy = qubo.Energy(bits);
    // local_field[i] = linear_i + sum over couplings to set bits, summed
    // in CSR (index-sorted) order so the init is platform-deterministic.
    local_field.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      double field = graph.linear[i];
      for (std::size_t k = graph.csr.offsets[i]; k < graph.csr.offsets[i + 1];
           ++k) {
        if (bits[static_cast<std::size_t>(graph.csr.neighbors[k])]) {
          field += graph.csr.coeffs[k];
        }
      }
      local_field[i] = field;
    }
  }

  /// Energy delta of flipping bit i, from the cached field: O(1).
  double FlipDelta(int i) const {
    const std::size_t idx = static_cast<std::size_t>(i);
    return bits[idx] ? -local_field[idx] : local_field[idx];
  }

  /// Flips bit i and pushes the change into the neighbors' local fields —
  /// O(degree(i)) sparse, O(n) unit-stride dense. local_field[i] itself
  /// is untouched (no self-coupling), so an immediate flip-back sees the
  /// exact negated delta.
  void CommitFlip(const SweepGraph& graph, int i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const std::uint8_t now = (bits[idx] ^= 1);
    const double sign = now ? 1.0 : -1.0;
    if (graph.dense) {
      const std::size_t n = static_cast<std::size_t>(graph.n);
      const double* row = graph.rows.data() + idx * n;
      double* field = local_field.data();
      for (std::size_t j = 0; j < n; ++j) field[j] += sign * row[j];
    } else {
      for (std::size_t k = graph.csr.offsets[idx];
           k < graph.csr.offsets[idx + 1]; ++k) {
        local_field[static_cast<std::size_t>(graph.csr.neighbors[k])] +=
            sign * graph.csr.coeffs[k];
      }
    }
  }

  /// Energy delta of jointly flipping every bit of `group`, computed from
  /// the shared local-field cache WITHOUT mutating any state:
  ///
  ///   dE(S) = sum_{i in S} FlipDelta(i)
  ///         + sum_{edges (i,j) inside S} c_ij * s_i * s_j,   s = 1 - 2b.
  ///
  /// Each member's single-flip delta counts the edge to another member as
  /// if that member stayed put; the pairwise term restores the joint
  /// product change c_ij * (b_i' - b_i)(b_j' - b_j). Rejected proposals
  /// therefore cost no undo at all. The edges come precomputed from
  /// SweepGraph::GroupCouplings, in the order a member-by-member CSR scan
  /// visits them, so the sum is the same additions in the same order.
  double GroupDelta(const std::vector<int>& group,
                    std::span<const GroupCoupling> couplings) const {
    double delta = 0.0;
    for (int i : group) delta += FlipDelta(i);
    for (const GroupCoupling& edge : couplings) {
      const double si = bits[static_cast<std::size_t>(edge.i)] ? -1.0 : 1.0;
      const double sj = bits[static_cast<std::size_t>(edge.j)] ? -1.0 : 1.0;
      delta += edge.coeff * si * sj;
    }
    return delta;
  }

  /// Commits an accepted group flip: O(sum of member degrees).
  void CommitGroup(const SweepGraph& graph, const std::vector<int>& group,
                   double delta) {
    for (int i : group) CommitFlip(graph, i);
    energy += delta;
  }
};

/// One reusable ReadState per pool worker. thread_local rather than
/// per-read storage so the arena survives across the reads a worker
/// processes (and across TrySolveQuboWithAnnealing calls on that thread).
ReadState& LocalReadState() {
  thread_local ReadState state;
  return state;
}

/// Metropolis acceptance of an energy change `delta` at inverse
/// temperature `beta`: downhill always, uphill with probability
/// exp(-beta * delta), drawing one uniform per uphill proposal and
/// deciding it with anneal_internal::AcceptUphill. A NaN delta draws and
/// rejects.
bool MetropolisAccept(double delta, double beta, Rng* rng,
                      const anneal_internal::MetropolisBracket& bracket) {
  if (delta <= 0.0) return true;
  return anneal_internal::AcceptUphill(beta * delta, rng->NextDouble(),
                                       bracket);
}

/// What every pack of one call reads and nothing writes.
struct AnnealCall {
  const QuboModel& qubo;
  const SweepGraph& graph;
  const AnnealOptions& options;
  const anneal_internal::MetropolisBracket& bracket;
  double beta_min = 0.0;
  double beta_ratio = 1.0;
};

/// Greedy descent to the local minimum, which removes residual thermal
/// noise from a finished read.
void Descend(const AnnealCall& call, ReadState* state) {
  const std::vector<std::vector<int>>& groups = call.options.flip_groups;
  bool improved = true;
  while (improved) {
    improved = false;
    for (int i = 0; i < call.graph.n; ++i) {
      const double delta = state->FlipDelta(i);
      if (delta < -1e-12) {
        state->CommitFlip(call.graph, i);
        state->energy += delta;
        improved = true;
      }
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const double delta =
          state->GroupDelta(groups[g], call.graph.GroupCouplings(g));
      if (delta < -1e-12) {
        state->CommitGroup(call.graph, groups[g], delta);
        improved = true;
      }
    }
  }
}

/// A pack of one read: the scalar sweep, and the only kernel on hosts
/// without AVX2.
class ScalarPack {
 public:
  static constexpr std::size_t kWidth = 1;

  ScalarPack(const AnnealCall& call, std::size_t first, std::size_t)
      : call_(call),
        rng_(ReadSeed(call.options.seed, static_cast<int>(first))),
        state_(LocalReadState()) {
    state_.Reset(call.graph, call.qubo, &rng_);
  }

  void Sweep(double beta) {
    for (int i = 0; i < call_.graph.n; ++i) {
      const double delta = state_.FlipDelta(i);
      if (MetropolisAccept(delta, beta, &rng_, call_.bracket)) {
        state_.CommitFlip(call_.graph, i);
        state_.energy += delta;
      }
    }
    const std::vector<std::vector<int>>& groups = call_.options.flip_groups;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const double delta =
          state_.GroupDelta(groups[g], call_.graph.GroupCouplings(g));
      if (MetropolisAccept(delta, beta, &rng_, call_.bracket)) {
        state_.CommitGroup(call_.graph, groups[g], delta);
      }
    }
  }

  ReadState& Lane(std::size_t) { return state_; }

 private:
  const AnnealCall& call_;
  Rng rng_;
  ReadState& state_;
};

#ifdef QQO_SA_LANE_PACKS
/// Grow-only buffer on a 64-byte boundary, the alignment of one AVX-512
/// register, which the pack kernels' aligned loads and stores require.
class AlignedDoubles {
 public:
  double* Resize(std::size_t count) {
    if (count > capacity_) {
      data_.reset(static_cast<double*>(
          ::operator new(count * sizeof(double), std::align_val_t{64})));
      capacity_ = count;
    }
    return data_.get();
  }

 private:
  struct Free {
    void operator()(double* p) const {
      ::operator delete(p, std::align_val_t{64});
    }
  };
  std::unique_ptr<double, Free> data_;
  std::size_t capacity_ = 0;
};

/// The lanes of one pack of W reads, structure of arrays: variable i's
/// local fields sit in field[W*i .. W*i + W-1] and its bits, as all-ones
/// or all-zeros masks, in bits[W*i .. W*i + W-1], so one register holds
/// one variable of every read. field and bits point into the worker's
/// arena; a pack overwrites every cell it reads.
template <std::size_t W>
struct PackLanes {
  double* field = nullptr;
  double* bits = nullptr;
  alignas(64) double energy[W] = {};
  /// Word w of lane l's xoshiro256** state at [w][l].
  alignas(64) std::uint64_t rng[4][W] = {};
};

struct PackArena {
  AlignedDoubles field;
  AlignedDoubles bits;
};

PackArena& LocalPackArena() {
  thread_local PackArena arena;
  return arena;
}

// The lane kernels are compiled for their instruction set in every x86-64
// GCC/Clang ELF build and run only where the CPU reports it
// (HostPackWidth). Like the statevector kernel they enable no FMA
// instruction set, and -ffp-contract=off keeps AVX-512's own fused forms
// out, so each lane rounds every product and sum exactly as the scalar
// sweep does.

/// Four reads per AVX2 register.
namespace avx2_lanes {
#define QQO_PACK_TARGET __attribute__((target("avx2")))

constexpr std::size_t kLanes = 4;
using Vec = __m256d;
using Ints = __m256i;
/// All-ones or all-zeros per lane.
using Mask = __m256i;

QQO_PACK_TARGET inline Vec Load(const double* p) { return _mm256_load_pd(p); }
QQO_PACK_TARGET inline void Store(double* p, Vec v) { _mm256_store_pd(p, v); }
QQO_PACK_TARGET inline Ints LoadInts(const std::uint64_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}
QQO_PACK_TARGET inline void StoreInts(std::uint64_t* p, Ints v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
}
QQO_PACK_TARGET inline Vec Splat(double x) { return _mm256_set1_pd(x); }
QQO_PACK_TARGET inline Vec Add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
QQO_PACK_TARGET inline Vec Mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }

template <int kPredicate>
QQO_PACK_TARGET inline Mask Compare(Vec a, Vec b) {
  return _mm256_castpd_si256(_mm256_cmp_pd(a, b, kPredicate));
}
QQO_PACK_TARGET inline unsigned Bits(Mask m) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
}
QQO_PACK_TARGET inline Mask FromBits(unsigned bits) {
  const __m256i lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
  return _mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_set1_epi64x(bits), lane_bits), lane_bits);
}

/// old + inc on the lanes of `m`, old on the others.
QQO_PACK_TARGET inline Vec AddWhere(Vec old, Mask m, Vec inc) {
  return _mm256_blendv_pd(old, _mm256_add_pd(old, inc), _mm256_castsi256_pd(m));
}
/// Per lane: if_set where `flags` (a bits vector) is set, else if_clear.
QQO_PACK_TARGET inline Vec Choose(Vec flags, Vec if_set, Vec if_clear) {
  return _mm256_blendv_pd(if_clear, if_set, flags);
}
/// `bits` with the lanes of `m` flipped.
QQO_PACK_TARGET inline Vec ToggleWhere(Vec bits, Mask m) {
  return _mm256_xor_pd(bits, _mm256_castsi256_pd(m));
}
/// -x on the lanes whose `bits` are set, by flipping the sign bit.
QQO_PACK_TARGET inline Vec NegateWhere(Vec x, Vec bits) {
  return _mm256_xor_pd(x, _mm256_and_pd(bits, _mm256_set1_pd(-0.0)));
}

QQO_PACK_TARGET inline __m256i Rotl64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k),
                         _mm256_srli_epi64(x, 64 - k));
}

/// Rng::NextDouble() of every lane's xoshiro256** stream, advancing only
/// the lanes in `draw`: a lane that does not draw keeps its state, so each
/// lane consumes its stream exactly as its scalar read does. The
/// multiplications by 5 and 9 are shifts and adds, and (r >> 11) becomes a
/// double exactly as hi * 2^32 + lo, each half through the 2^52 exponent
/// trick (AVX2 has no 64-bit integer to double conversion).
QQO_PACK_TARGET inline Vec MaskedNextDouble(Ints s[4], Mask draw) {
  const __m256i s1 = s[1];
  const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
  const __m256i rotated = Rotl64(times5, 7);
  const __m256i result =
      _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  const __m256i s2 = _mm256_xor_si256(s[2], s[0]);
  const __m256i s3 = _mm256_xor_si256(s[3], s1);
  s[0] = _mm256_blendv_epi8(s[0], _mm256_xor_si256(s[0], s3), draw);
  s[1] = _mm256_blendv_epi8(s1, _mm256_xor_si256(s1, s2), draw);
  s[2] = _mm256_blendv_epi8(s[2], _mm256_xor_si256(s2, t), draw);
  s[3] = _mm256_blendv_epi8(s[3], Rotl64(s3, 45), draw);

  const __m256i bits53 = _mm256_srli_epi64(result, 11);
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d two84 = _mm256_set1_pd(0x1.0p84);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_blend_epi32(
          bits53, _mm256_castpd_si256(two52), 0xAA)),
      two52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(bits53, 32),
                                          _mm256_castpd_si256(two84))),
      two84);
  return _mm256_mul_pd(_mm256_add_pd(hi, lo), _mm256_set1_pd(0x1.0p-53));
}

/// The bracket bounds of x's bucket, x clamped into [0, kMaxX] so that
/// downhill and NaN lanes index inside the table too (min and max return
/// their second operand on NaN).
QQO_PACK_TARGET inline void GatherBracket(Vec x, const double* bounds,
                                          Vec* lower, Vec* upper) {
  using anneal_internal::MetropolisBracket;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d clamped = _mm256_max_pd(
      _mm256_min_pd(x, _mm256_set1_pd(MetropolisBracket::kMaxX)), zero);
  const __m128i bucket = _mm256_cvttpd_epi32(
      _mm256_mul_pd(clamped, _mm256_set1_pd(MetropolisBracket::kScale)));
  const __m128i index = _mm_add_epi32(bucket, bucket);
  // Masked gathers: GCC 12 flags the plain gather's undefined pass-through
  // source as maybe-uninitialized.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  *lower = _mm256_mask_i32gather_pd(zero, bounds, index, all, 8);
  *upper = _mm256_mask_i32gather_pd(zero, bounds + 1, index, all, 8);
}

#include "anneal/sa_pack_sweep.inc"

#undef QQO_PACK_TARGET
}  // namespace avx2_lanes

/// Eight reads per AVX-512 register. GCC 12 expands the unmasked forms of
/// several AVX-512 intrinsics (shifts, rotates, min/max, the double to
/// int32 conversion, the gather) through an undefined pass-through value
/// that -Wmaybe-uninitialized flags; the all-lanes masked forms used here
/// compute the same thing without one.
namespace avx512_lanes {
#define QQO_PACK_TARGET __attribute__((target("avx512f,avx512dq")))

constexpr std::size_t kLanes = 8;
constexpr __mmask8 kAll = 0xFF;
using Vec = __m512d;
using Ints = __m512i;
using Mask = __mmask8;

QQO_PACK_TARGET inline Vec Load(const double* p) { return _mm512_load_pd(p); }
QQO_PACK_TARGET inline void Store(double* p, Vec v) { _mm512_store_pd(p, v); }
QQO_PACK_TARGET inline Ints LoadInts(const std::uint64_t* p) {
  return _mm512_load_si512(p);
}
QQO_PACK_TARGET inline void StoreInts(std::uint64_t* p, Ints v) {
  _mm512_store_si512(p, v);
}
QQO_PACK_TARGET inline Vec Splat(double x) { return _mm512_set1_pd(x); }
QQO_PACK_TARGET inline Vec Add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
QQO_PACK_TARGET inline Vec Mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }

template <int kPredicate>
QQO_PACK_TARGET inline Mask Compare(Vec a, Vec b) {
  return _mm512_cmp_pd_mask(a, b, kPredicate);
}
QQO_PACK_TARGET inline unsigned Bits(Mask m) { return m; }
QQO_PACK_TARGET inline Mask FromBits(unsigned bits) {
  return static_cast<Mask>(bits);
}

/// old + inc on the lanes of `m`, old on the others: the masked add is
/// the blend, so the other lanes are never += 0.
QQO_PACK_TARGET inline Vec AddWhere(Vec old, Mask m, Vec inc) {
  return _mm512_mask_add_pd(old, m, old, inc);
}
/// Per lane: if_set where `flags` (a bits vector) is set, else if_clear.
QQO_PACK_TARGET inline Vec Choose(Vec flags, Vec if_set, Vec if_clear) {
  return _mm512_mask_blend_pd(_mm512_movepi64_mask(_mm512_castpd_si512(flags)),
                              if_clear, if_set);
}
/// `bits` with the lanes of `m` flipped.
QQO_PACK_TARGET inline Vec ToggleWhere(Vec bits, Mask m) {
  return _mm512_mask_xor_pd(bits, m, bits,
                            _mm512_castsi512_pd(_mm512_set1_epi64(-1)));
}
/// -x on the lanes whose `bits` are set, by flipping the sign bit.
QQO_PACK_TARGET inline Vec NegateWhere(Vec x, Vec bits) {
  return _mm512_xor_pd(x, _mm512_and_pd(bits, _mm512_set1_pd(-0.0)));
}

/// Rng::NextDouble() of every lane's xoshiro256** stream, advancing only
/// the lanes in `draw` (masked xors and rotate), as in the AVX2 kernel.
/// (r >> 11) < 2^53 converts to a double exactly in one instruction.
QQO_PACK_TARGET inline Vec MaskedNextDouble(Ints s[4], Mask draw) {
  const __m512i s1 = s[1];
  const __m512i times5 =
      _mm512_add_epi64(_mm512_maskz_slli_epi64(kAll, s1, 2), s1);
  const __m512i rotated = _mm512_maskz_rol_epi64(kAll, times5, 7);
  const __m512i result =
      _mm512_add_epi64(_mm512_maskz_slli_epi64(kAll, rotated, 3), rotated);
  const __m512i t = _mm512_maskz_slli_epi64(kAll, s1, 17);
  const __m512i s2 = _mm512_xor_si512(s[2], s[0]);
  const __m512i s3 = _mm512_xor_si512(s[3], s1);
  s[0] = _mm512_mask_xor_epi64(s[0], draw, s[0], s3);
  s[1] = _mm512_mask_xor_epi64(s1, draw, s1, s2);
  s[2] = _mm512_mask_xor_epi64(s[2], draw, s2, t);
  s[3] = _mm512_mask_rol_epi64(s[3], draw, s3, 45);
  return _mm512_mul_pd(
      _mm512_maskz_cvtepu64_pd(kAll, _mm512_maskz_srli_epi64(kAll, result, 11)),
      _mm512_set1_pd(0x1.0p-53));
}

/// The bracket bounds of x's bucket, x clamped into [0, kMaxX] so that
/// downhill and NaN lanes index inside the table too (min and max return
/// their second operand on NaN, as in the AVX2 kernel).
QQO_PACK_TARGET inline void GatherBracket(Vec x, const double* bounds,
                                          Vec* lower, Vec* upper) {
  using anneal_internal::MetropolisBracket;
  const __m512d zero = _mm512_setzero_pd();
  const __m512d clamped = _mm512_maskz_max_pd(
      kAll,
      _mm512_maskz_min_pd(kAll, x, _mm512_set1_pd(MetropolisBracket::kMaxX)),
      zero);
  const __m256i bucket = _mm512_maskz_cvttpd_epi32(
      kAll, _mm512_mul_pd(clamped, _mm512_set1_pd(MetropolisBracket::kScale)));
  const __m256i index = _mm256_add_epi32(bucket, bucket);
  *lower = _mm512_mask_i32gather_pd(zero, kAll, index, bounds, 8);
  *upper = _mm512_mask_i32gather_pd(zero, kAll, index, bounds + 1, 8);
}

#include "anneal/sa_pack_sweep.inc"

#undef QQO_PACK_TARGET
}  // namespace avx512_lanes

using avx2_lanes::SweepLanes;
using avx512_lanes::SweepLanes;

/// W reads annealed in lock-step, one per lane: lane l is read first + l.
/// Every lane performs exactly the floating-point operations and RNG
/// draws of its scalar read. A partial pack fills its spare lanes with
/// copies of its first read, which accept exactly when that read does and
/// so add no row update of their own; the caller drops their results.
/// Lanes pass through the worker's scalar ReadState for Reset and the
/// final descent, one at a time.
template <std::size_t W>
class LanePack {
 public:
  static constexpr std::size_t kWidth = W;

  LanePack(const AnnealCall& call, std::size_t first, std::size_t live)
      : call_(call) {
    const std::size_t n = static_cast<std::size_t>(call.graph.n);
    PackArena& arena = LocalPackArena();
    lanes_.field = arena.field.Resize(kWidth * n);
    lanes_.bits = arena.bits.Resize(kWidth * n);
    for (std::size_t lane = 0; lane < kWidth; ++lane) {
      const std::size_t read = first + (lane < live ? lane : 0);
      Rng rng(ReadSeed(call.options.seed, static_cast<int>(read)));
      ReadState& state = LocalReadState();
      state.Reset(call.graph, call.qubo, &rng);
      for (std::size_t i = 0; i < n; ++i) {
        lanes_.field[kWidth * i + lane] = state.local_field[i];
        const std::uint64_t mask = state.bits[i] ? ~std::uint64_t{0} : 0;
        std::memcpy(&lanes_.bits[kWidth * i + lane], &mask, sizeof(mask));
      }
      lanes_.energy[lane] = state.energy;
      const std::array<std::uint64_t, 4> words = rng.State();
      for (std::size_t w = 0; w < words.size(); ++w) {
        lanes_.rng[w][lane] = words[w];
      }
    }
  }

  /// Lane `lane`'s state, copied into the worker's scalar ReadState.
  ReadState& Lane(std::size_t lane) {
    ReadState& state = LocalReadState();
    const std::size_t n = static_cast<std::size_t>(call_.graph.n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t mask = 0;
      std::memcpy(&mask, &lanes_.bits[kWidth * i + lane], sizeof(mask));
      state.bits[i] = mask != 0 ? 1 : 0;
      state.local_field[i] = lanes_.field[kWidth * i + lane];
    }
    state.energy = lanes_.energy[lane];
    return state;
  }

  void Sweep(double beta) { SweepLanes(call_, lanes_, beta); }

 private:
  const AnnealCall& call_;
  PackLanes<W> lanes_;
};
#endif  // QQO_SA_LANE_PACKS

/// Per-read results of one call, indexed by read. A pack writes only the
/// slots of its own reads.
struct ReadSlots {
  explicit ReadSlots(std::size_t reads)
      : bits(reads), energies(reads), done(reads, 0), status(reads) {}

  std::vector<std::vector<std::uint8_t>> bits;
  std::vector<double> energies;
  std::vector<std::uint8_t> done;
  std::vector<Status> status;
};

/// Anneals the `live` reads first, first + 1, ... of one pack. Each read
/// keeps its own metrics, fault passes and anytime result: one
/// anneal.reads count, and per sweep one anneal.sweeps count and one
/// annealer.sweep pass, for every live read that has not faulted. A
/// faulted read stops contributing; the deadline, checked once per sweep,
/// cuts the whole pack short (keeping each read's best-so-far state) or,
/// when cancelled, fails every read still running.
template <class Pack>
void AnnealPack(const AnnealCall& call, std::size_t first, std::size_t live,
                ReadSlots* slots, std::atomic<bool>* timed_out) {
  for (std::size_t lane = 0; lane < live; ++lane) {
    QQO_COUNT("anneal.reads", 1);
  }
  Pack pack(call, first, live);
  std::array<bool, Pack::kWidth> running{};
  std::fill_n(running.begin(), live, true);
  std::size_t num_running = live;
  const Deadline& deadline = call.options.deadline;
  double beta = call.beta_min;
  bool cut_short = false;
  // QQO_LOOP(anneal.sweep)
  for (int sweep = 0; sweep < call.options.num_sweeps; ++sweep) {
    for (std::size_t lane = 0; lane < live; ++lane) {
      if (!running[lane]) continue;
      QQO_COUNT("anneal.sweeps", 1);
      // A Status is built only once a fault site is armed or the
      // deadline has fired, so the happy path is a few plain tests.
      if (FaultInjection::AnyArmed()) {
        if (Status fault = CheckFaultPoint("annealer.sweep"); !fault.ok()) {
          slots->status[first + lane] = std::move(fault);
          running[lane] = false;  // this read contributes nothing
          --num_running;
        }
      }
    }
    if (num_running == 0) return;
    if (deadline.Cancelled() || deadline.Expired()) {
      const Status check = deadline.Check();
      if (check.code() == StatusCode::kCancelled) {
        for (std::size_t lane = 0; lane < live; ++lane) {
          if (running[lane]) slots->status[first + lane] = check;
        }
        return;
      }
      timed_out->store(true, std::memory_order_relaxed);
      cut_short = true;
      break;  // keep the best-so-far states
    }
    pack.Sweep(beta);
    beta *= call.beta_ratio;
  }
  for (std::size_t lane = 0; lane < live; ++lane) {
    if (!running[lane]) continue;
    ReadState& state = pack.Lane(lane);
    // The descent is the one unbounded loop here: skipped once the
    // deadline has fired.
    if (!cut_short) Descend(call, &state);
    slots->energies[first + lane] = state.energy;
    // Copy (not move) so the worker's arena keeps its storage.
    slots->bits[first + lane] = state.bits;
    slots->done[first + lane] = 1;
  }
}

/// The kernel for a pack of `live` reads of the `width`-lane host: the
/// scalar sweep, read by read, below three live reads, else the narrowest
/// lane kernel that holds them. A pack pays a row update whenever any of
/// its reads accepts, so one or two reads in a pack ran slower than on
/// their own on two of the three QUBOs this was timed on, and three or
/// four reads ran faster in 4 lanes than in 8 (DESIGN.md "Read packs",
/// BM_SaPackRoute).
std::size_t RoutedKernel(std::size_t live, std::size_t width) {
  if (live < 3) return 1;
  return live <= 4 ? 4 : width;
}

/// Anneals in packs of `width` reads (the last one partial), each run by
/// the `width`-lane kernel or, with `route`, by the kernel RoutedKernel
/// picks. Kernels are bit-identical, so the choice changes no result.
StatusOr<AnnealResult> AnnealInPacks(const QuboModel& qubo,
                                     const AnnealOptions& options,
                                     std::size_t width, bool route) {
  QQO_TRACE_SPAN("anneal.solve");
  const int n = qubo.NumVariables();
  if (n < 1) return InvalidArgumentError("QUBO has no variables");
  if (options.num_reads < 1 || options.num_sweeps < 1) {
    return InvalidArgumentError(
        StrFormat("SA needs num_reads >= 1 and num_sweeps >= 1, got %d / %d",
                  options.num_reads, options.num_sweeps));
  }
  if (options.beta_max > 0.0 &&
      !(options.beta_min > 0.0 && options.beta_max >= options.beta_min)) {
    return InvalidArgumentError(
        StrFormat("SA needs 0 < beta_min <= beta_max, got %g / %g",
                  options.beta_min, options.beta_max));
  }
  QOPT_ASSIGN_OR_RETURN(const SweepGraph graph,
                        BuildSweepGraph(qubo, options.flip_groups));

  double beta_min = options.beta_min;
  double beta_max = options.beta_max;
  if (beta_max <= 0.0) {
    std::tie(beta_min, beta_max) = DefaultBetaRange(graph);
  }
  const double beta_ratio =
      options.num_sweeps > 1
          ? std::pow(beta_max / beta_min,
                     1.0 / static_cast<double>(options.num_sweeps - 1))
          : 1.0;
  const AnnealCall call{qubo,     graph,     options,
                        anneal_internal::MetropolisBracket::Get(),
                        beta_min, beta_ratio};

  // Every read is fully independent: its own RNG stream, its own state,
  // its results indexed by read. A pack of `width` reads, fixed by read
  // index, is the unit of work, so the output is the same at any thread
  // count and any width. The deadline is checked at every sweep boundary
  // and at pack claim time; reads cut short keep their best-so-far state
  // (anytime semantics), reads of packs that never start stay absent.
  // One anneal.read span covers a pack.
  const std::size_t num_reads = static_cast<std::size_t>(options.num_reads);
  ReadSlots slots(num_reads);
  std::atomic<bool> timed_out{false};
  const Status loop_status = ThreadPool::Default().ParallelFor(
      (num_reads + width - 1) / width, options.deadline,
      [&](std::size_t pack) {
        QQO_TRACE_SPAN("anneal.read");
        const std::size_t first = pack * width;
        const std::size_t live = std::min(width, num_reads - first);
        // The task's reads in packs of `kernel` reads; kernel 1 is the
        // scalar sweep, one read at a time.
        const std::size_t kernel = route ? RoutedKernel(live, width) : width;
        for (std::size_t done = 0; done < live; done += kernel) {
          const std::size_t reads = std::min(kernel, live - done);
          switch (kernel) {
#ifdef QQO_SA_LANE_PACKS
            case 8:
              AnnealPack<LanePack<8>>(call, first + done, reads, &slots,
                                      &timed_out);
              break;
            case 4:
              AnnealPack<LanePack<4>>(call, first + done, reads, &slots,
                                      &timed_out);
              break;
#endif
            default:
              AnnealPack<ScalarPack>(call, first + done, reads, &slots,
                                     &timed_out);
          }
        }
      });

  // Cancellation and injected faults fail the whole call; a plain expiry
  // only marks it timed out.
  for (std::size_t read = 0; read < num_reads; ++read) {
    if (!slots.status[read].ok()) return slots.status[read];
  }
  if (!loop_status.ok()) {
    if (loop_status.code() == StatusCode::kCancelled) return loop_status;
    timed_out.store(true, std::memory_order_relaxed);
  }

  AnnealResult result;
  result.timed_out = timed_out.load(std::memory_order_relaxed);
  std::size_t best_read = num_reads;
  for (std::size_t read = 0; read < num_reads; ++read) {
    if (!slots.done[read]) continue;
    result.read_energies.push_back(slots.energies[read]);
    if (best_read == num_reads ||
        slots.energies[read] < slots.energies[best_read]) {
      best_read = read;
    }
  }
  if (best_read == num_reads) {
    // The deadline fired before any read finished a single sweep. The
    // anytime contract still owes the caller a valid state: all-zeros is
    // the canonical deterministic fallback.
    result.best_bits.assign(static_cast<std::size_t>(n), 0);
  } else {
    result.best_bits = std::move(slots.bits[best_read]);
  }
  // Recompute exactly to clear accumulated floating-point drift.
  result.best_energy = qubo.Energy(result.best_bits);
  return result;
}

}  // namespace

namespace anneal_internal {

int HostPackWidth() {
#ifdef QQO_SA_LANE_PACKS
  // An 8-lane host also runs the 4-lane kernel (for partial packs), so it
  // must have AVX2 too, as every AVX-512 CPU does.
  static const int width = [] {
    if (!__builtin_cpu_supports("avx2")) return 1;
    return __builtin_cpu_supports("avx512f") &&
                   __builtin_cpu_supports("avx512dq")
               ? 8
               : 4;
  }();
  return width;
#else
  return 1;
#endif
}

StatusOr<AnnealResult> TrySolveQuboWithAnnealingAtWidth(
    const QuboModel& qubo, const AnnealOptions& options, int width) {
  if (width != 1 && !((width == 4 || width == 8) && width <= HostPackWidth())) {
    return InvalidArgumentError(StrFormat(
        "SA pack width %d is not available on this host", width));
  }
  return AnnealInPacks(qubo, options, static_cast<std::size_t>(width),
                       /*route=*/false);
}

}  // namespace anneal_internal

StatusOr<AnnealResult> TrySolveQuboWithAnnealing(const QuboModel& qubo,
                                                 const AnnealOptions& options) {
  return AnnealInPacks(
      qubo, options,
      static_cast<std::size_t>(anneal_internal::HostPackWidth()),
      /*route=*/true);
}

}  // namespace qopt
