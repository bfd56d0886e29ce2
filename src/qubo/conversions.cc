#include "qubo/conversions.h"

#include "common/check.h"

namespace qopt {

IsingModel QuboToIsing(const QuboModel& qubo) {
  IsingModel ising(qubo.NumVariables());
  ising.AddOffset(qubo.Offset());
  for (int i = 0; i < qubo.NumVariables(); ++i) {
    // a * x = a/2 + (a/2) * s
    const double a = qubo.Linear(i);
    ising.AddField(i, a / 2.0);
    ising.AddOffset(a / 2.0);
  }
  for (const auto& [edge, b] : qubo.QuadraticTerms()) {
    // b * x_i x_j = b/4 * (1 + s_i + s_j + s_i s_j)
    ising.AddCoupling(edge.first, edge.second, b / 4.0);
    ising.AddField(edge.first, b / 4.0);
    ising.AddField(edge.second, b / 4.0);
    ising.AddOffset(b / 4.0);
  }
  return ising;
}

QuboModel IsingToQubo(const IsingModel& ising) {
  QuboBuilder qubo(ising.NumSpins());
  qubo.AddOffset(ising.Offset());
  for (int i = 0; i < ising.NumSpins(); ++i) {
    // h * s = 2h * x - h
    const double h = ising.Field(i);
    qubo.AddLinear(i, 2.0 * h);
    qubo.AddOffset(-h);
  }
  for (const auto& [edge, j] : ising.Couplings()) {
    // j * s_i s_j = 4j x_i x_j - 2j x_i - 2j x_j + j
    qubo.AddQuadratic(edge.first, edge.second, 4.0 * j);
    qubo.AddLinear(edge.first, -2.0 * j);
    qubo.AddLinear(edge.second, -2.0 * j);
    qubo.AddOffset(j);
  }
  return std::move(qubo).Build();
}

std::vector<int> BitsToSpins(const std::vector<std::uint8_t>& bits) {
  std::vector<int> spins(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    QOPT_CHECK(bits[i] == 0 || bits[i] == 1);
    spins[i] = bits[i] ? 1 : -1;
  }
  return spins;
}

std::vector<std::uint8_t> SpinsToBits(const std::vector<int>& spins) {
  std::vector<std::uint8_t> bits(spins.size());
  for (std::size_t i = 0; i < spins.size(); ++i) {
    QOPT_CHECK(spins[i] == -1 || spins[i] == 1);
    bits[i] = spins[i] > 0 ? 1 : 0;
  }
  return bits;
}

}  // namespace qopt
