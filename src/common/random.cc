#include "common/random.h"

#include <cmath>

#include "common/check.h"

namespace qopt {

Rng::Rng(std::uint64_t seed) {
  // Expand the seed with splitmix64 so that nearby seeds yield unrelated
  // streams (xoshiro must not be seeded with all zeros).
  std::uint64_t sm = seed;
  for (auto& s : s_) s = Mix64(sm += kSplitMixGamma);
}

std::uint64_t Rng::NextUint64(std::uint64_t bound) {
  QOPT_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

int Rng::NextInt(int lo, int hi) {
  QOPT_CHECK(lo <= hi);
  return lo + static_cast<int>(NextUint64(
                  static_cast<std::uint64_t>(hi) - lo + 1));
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = NextDouble(-1.0, 1.0);
    v = NextDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

}  // namespace qopt
