#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace qopt {

/// The splitmix64 increment: successive splitmix64 states differ by it.
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

/// The splitmix64 finalizer: a bijective avalanche of one 64-bit word.
/// Every derived seed and structural hash in the library funnels through
/// this one copy, so inputs that differ in one bit land far apart.
inline std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Deterministic, fast pseudo-random number generator (xoshiro256**) used
/// everywhere in the library so that experiments are reproducible from a
/// single seed. Satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(std::uint64_t seed = kSplitMixGamma);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value. Inline, like NextDouble(): the annealer's
  /// sweep draws one per uphill proposal.
  result_type operator()() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// The four xoshiro256** state words, for kernels that step several
  /// streams in lock-step and must consume each one exactly as
  /// operator() does.
  std::array<std::uint64_t, 4> State() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t NextUint64(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int NextInt(int lo, int hi);

  /// Uniform double in [0, 1): a multiple of 2^-53, so the smallest
  /// non-zero value is 2^-53.
  double NextDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Bernoulli draw with success probability `p`.
  bool NextBool(double p = 0.5);

  /// Standard normal variate (Marsaglia polar method).
  double NextGaussian();

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = NextUint64(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace qopt
