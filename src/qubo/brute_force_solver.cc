#include "qubo/brute_force_solver.h"

#include <bit>

#include "common/table_printer.h"

namespace qopt {

StatusOr<BruteForceResult> TrySolveQuboBruteForce(const QuboModel& qubo,
                                                  const Deadline& deadline) {
  const int n = qubo.NumVariables();
  if (n > kMaxBruteForceVariables) {
    return ResourceExhaustedError(StrFormat(
        "exact oracle enumerates 2^%d assignments; limit is %d variables", n,
        kMaxBruteForceVariables));
  }
  QOPT_RETURN_IF_ERROR(deadline.Check());
  BruteForceResult result;
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(n), 0);
  result.best_bits = bits;
  result.best_energy = qubo.Energy(bits);
  result.num_optima = 1;
  if (n == 0) return result;

  // Gray-code walk: between consecutive assignments exactly one bit flips,
  // so the energy can be updated incrementally in O(degree).
  double energy = result.best_energy;
  const std::uint64_t total = std::uint64_t{1} << n;
  for (std::uint64_t k = 1; k < total; ++k) {
    const int flip = std::countr_zero(k);
    energy += qubo.FlipDelta(bits, flip);
    bits[static_cast<std::size_t>(flip)] ^= 1;
    if (energy < result.best_energy - 1e-12) {
      result.best_energy = energy;
      result.best_bits = bits;
      result.num_optima = 1;
    } else if (energy <= result.best_energy + 1e-12) {
      ++result.num_optima;
    }
  }
  return result;
}

}  // namespace qopt
