#pragma once

// Internals of the simulated annealer's sweep kernel and of the embedding
// composite, shared with their tests and benchmarks. Not part of the
// library's API: nothing outside src/anneal, tests/ and bench/ includes
// this header.

#include <cmath>
#include <cstddef>
#include <vector>

#include "anneal/embedding.h"
#include "anneal/embedding_composite.h"
#include "anneal/simulated_annealer.h"

namespace qopt::anneal_internal {

/// A table that decides most Metropolis draws `u < exp(-x)` without
/// calling exp. Bucket k covers x in [k/s, (k+1)/s] with s = kBuckets /
/// kMaxX, and brackets exp(-x) there:
///
///   Lower(k) = exp(-(k+1)/s) * (1 - 1e-12)  <=  exp(-x)
///   Upper(k) = exp(-k/s) * (1 + 1e-12)      >=  exp(-x)
///
/// The 1e-12 margins dwarf every rounding involved (x*s landing in a
/// neighbouring bucket moves exp(-x) by about 1e-14 relative, and exp is
/// off by under 1 ulp), so u < Lower(k) implies u < exp(-x) and
/// u >= Upper(k) implies u >= exp(-x). Only a u inside the bracket, about
/// 1% of the draws, needs exp itself. Bucket kBuckets holds x = kMaxX.
class MetropolisBracket {
 public:
  static constexpr int kBuckets = 4096;
  static constexpr double kMaxX = 40.0;
  static constexpr double kScale = kBuckets / kMaxX;

  /// The process-wide table, built on first use.
  static const MetropolisBracket& Get() {
    static const MetropolisBracket table;
    return table;
  }

  /// Bucket of an x in [0, kMaxX].
  static int Bucket(double x) { return static_cast<int>(x * kScale); }

  double Lower(int k) const { return bounds_[Slot(k)]; }
  double Upper(int k) const { return bounds_[Slot(k) + 1]; }
  /// Lower(k) at [2k] and Upper(k) at [2k + 1], for gathers.
  const double* Bounds() const { return bounds_.data(); }

 private:
  MetropolisBracket() : bounds_(Slot(kBuckets + 1)) {
    for (int k = 0; k <= kBuckets; ++k) {
      bounds_[Slot(k)] = std::exp(-(k + 1) / kScale) * (1.0 - 1e-12);
      bounds_[Slot(k) + 1] = std::exp(-k / kScale) * (1.0 + 1e-12);
    }
  }

  static std::size_t Slot(int k) { return 2 * static_cast<std::size_t>(k); }

  std::vector<double> bounds_;
};

/// The uphill half of the Metropolis rule: returns exactly
/// `u < std::exp(-x)` for a uniform u in [0, 1) and x = beta * delta with
/// delta > 0. For x > kMaxX, exp(-x) < 2^-53, the smallest non-zero u, so
/// any u != 0 rejects, as does a NaN x; u == 0 and an undecided bracket
/// fall back to the comparison itself.
inline bool AcceptUphill(double x, double u,
                         const MetropolisBracket& bracket) {
  if (x <= MetropolisBracket::kMaxX) {
    const int k = MetropolisBracket::Bucket(x);
    if (u < bracket.Lower(k)) return true;
    if (u >= bracket.Upper(k)) return false;
  } else if (u != 0.0) {
    return false;
  }
  return u < std::exp(-x);
}

/// Reads one worker anneals in lock-step on this host, one per lane of
/// the widest kernel it runs: 8 (AVX-512F and AVX-512DQ, and AVX2), else
/// 4 (AVX2), else 1. Read once from CPUID; x86-64 GCC/Clang ELF builds
/// compile the lane kernels, other builds only the scalar sweep.
int HostPackWidth();

/// TrySolveQuboWithAnnealing with every pack, partial ones included, run
/// by the `width`-lane kernel: 1 (the scalar sweep), 4 where
/// HostPackWidth() >= 4, or 8 where it is 8. Any other width returns
/// kInvalidArgument. Every width returns bit-identical results; tests run
/// the golden rows through each, and perf_micro times each kernel.
StatusOr<AnnealResult> TrySolveQuboWithAnnealingAtWidth(
    const QuboModel& qubo, const AnnealOptions& options, int width);

/// TrySolveQuboOnTopology with the embedding given instead of searched;
/// `options.embed` is unused. Tests pin the composite's outputs with it
/// on an embedding of their choice. Also returns kInvalidArgument when
/// `embedding` is not a minor embedding of `qubo`'s interaction graph into
/// `topology` (ValidateEmbedding).
StatusOr<EmbeddedSolveResult> TrySolveQuboOnFixedEmbedding(
    const QuboModel& qubo, const SimpleGraph& topology, Embedding embedding,
    const EmbeddedSolveOptions& options);

}  // namespace qopt::anneal_internal
