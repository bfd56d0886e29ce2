#include "circuit/statevector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numbers>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace qopt {

namespace {
using Complex = std::complex<double>;
constexpr Complex kI{0.0, 1.0};

/// States below this width are too small for threading to pay off; every
/// elementwise pass on them stays on the calling thread.
constexpr int kParallelMinQubits = 14;
/// Elementwise passes are split into blocks of this many iterations. The
/// block size is independent of the pool size, so any blockwise arithmetic
/// is reproducible across QQO_THREADS settings.
constexpr std::size_t kParallelBlock = std::size_t{1} << 12;

/// Spreads the bits of `k` apart so that bit position q (with
/// stride = 1 << q) becomes zero: the standard index expansion that
/// enumerates exactly the basis states with a fixed 0 at one qubit.
inline std::size_t InsertZeroBit(std::size_t k, std::size_t stride) {
  return ((k & ~(stride - 1)) << 1) | (k & (stride - 1));
}

/// The x86 GCC/Clang ELF builds compile the single-qubit kernel twice, for
/// AVX2 and for the baseline ISA; the loader's CPUID resolver picks the
/// clone once per process. Other builds compile it at the baseline ISA
/// (AArch64's already has 128-bit double vectors). Neither clone enables
/// FMA, and src/CMakeLists.txt turns contraction off, so every build rounds
/// each product and sum separately.
#if defined(__GNUC__) && defined(__ELF__) && \
    (defined(__x86_64__) || defined(__i386__))
#define QQO_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define QQO_KERNEL_CLONES
#endif

/// A 2x2 gate matrix, row-major, each entry as its real part `r`, its
/// imaginary part `i` and that part negated, `n`.
struct GateMatrix {
  double m00r, m00i, m00n, m01r, m01i, m01n;
  double m10r, m10i, m10n, m11r, m11i, m11n;
};

/// Applies the gate to one amplitude pair, a0 at x0 and a1 at x1. Each
/// complex product m*a is re = m.re*a.re + (-m.im)*a.im, im = m.re*a.im +
/// m.im*a.re: libstdc++'s order for finite operands, since IEEE rounds
/// x + (-y) exactly like x - y. Each output half is one add of two
/// products, so the result is `m00 * a0 + m01 * a1` of std::complex bit
/// for bit. Both halves being adds lets the compiler vectorize a pair as
/// lane-wise products of each amplitude and its swapped (im, re) halves.
inline void ApplyToPair(const GateMatrix& m, double* x0, double* x1) {
  const double a0r = x0[0], a0i = x0[1], a1r = x1[0], a1i = x1[1];
  x0[0] = (m.m00r * a0r + m.m00n * a0i) + (m.m01r * a1r + m.m01n * a1i);
  x0[1] = (m.m00r * a0i + m.m00i * a0r) + (m.m01r * a1i + m.m01i * a1r);
  x1[0] = (m.m10r * a0r + m.m10n * a0i) + (m.m11r * a1r + m.m11n * a1i);
  x1[1] = (m.m10r * a0i + m.m10i * a0r) + (m.m11r * a1i + m.m11i * a1r);
}

/// Single-qubit gate pass over pair indices [begin, end) of the state at
/// `amp` (2^n complex amplitudes as interleaved doubles). The pairs of
/// qubit q are runs of `stride` = 2^q consecutive amplitudes, each run
/// matched with the run `stride` amplitudes above it. One loop per stride
/// shape keeps each loop simple enough to vectorize. `m` is taken by value
/// so that no store to `amp` can alias it and its entries stay in
/// registers.
QQO_KERNEL_CLONES void ApplySingleQubitPairs(double* amp, std::size_t begin,
                                             std::size_t end,
                                             std::size_t stride,
                                             const GateMatrix m) {
  if (stride == 1) {
    // Pair k is the two adjacent amplitudes 2k and 2k + 1.
    for (std::size_t k = begin; k < end; ++k) {
      ApplyToPair(m, amp + 4 * k, amp + 4 * k + 2);
    }
    return;
  }
  // From here on begin and end are even (blocks hold an even number of
  // pairs, and so does a state wide enough to have qubit 1), and so are
  // run lengths, so every loop below takes two pairs per step.
  if (stride == 2) {
    // Pairs k and k + 1 (k even) are amplitudes 2k, 2k + 1 and their
    // partners 2k + 2, 2k + 3.
    for (std::size_t k = begin; k < end; k += 2) {
      double* p = amp + 4 * k;
      ApplyToPair(m, p, p + 4);
      ApplyToPair(m, p + 2, p + 6);
    }
    return;
  }
  for (std::size_t k = begin; k < end;) {
    const std::size_t run_end = std::min(end, (k | (stride - 1)) + 1);
    double* p0 = amp + 2 * InsertZeroBit(k, stride);
    double* p1 = p0 + 2 * stride;
    const std::size_t len = 2 * (run_end - k);
    for (std::size_t j = 0; j < len; j += 4) {
      ApplyToPair(m, p0 + j, p1 + j);
      ApplyToPair(m, p0 + j + 2, p1 + j + 2);
    }
    k = run_end;
  }
}

/// Runs fn over [0, n) in fixed-size blocks, on the default pool when the
/// pass is large enough. fn must only touch slots derived from its own
/// indices (all callers below write disjoint amplitudes).
template <typename Fn>
void ForEachBlock(std::size_t n, int num_qubits, const Fn& fn) {
  if (num_qubits >= kParallelMinQubits &&
      ThreadPool::Default().NumThreads() > 1) {
    ThreadPool::Default().ParallelForRange(
        n, kParallelBlock,
        [&fn](std::size_t begin, std::size_t end) { fn(begin, end); });
  } else {
    fn(0, n);
  }
}

}  // namespace

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  QOPT_CHECK(num_qubits >= 0);
  QOPT_CHECK_MSG(num_qubits <= kMaxStatevectorQubits,
                 "statevector too large to simulate");
  amplitudes_.assign(std::size_t{1} << num_qubits, Complex{0.0, 0.0});
  amplitudes_[0] = Complex{1.0, 0.0};
}

void Statevector::Reset() {
  std::fill(amplitudes_.begin(), amplitudes_.end(), Complex{0.0, 0.0});
  amplitudes_[0] = Complex{1.0, 0.0};
}

void Statevector::ApplySingleQubit(int q, const Complex m[2][2]) {
  const std::size_t stride = std::size_t{1} << q;
  const std::size_t pairs = amplitudes_.size() / 2;
  // The standard lets a std::complex<double> array be read as interleaved
  // (re, im) doubles.
  double* amp = reinterpret_cast<double*>(amplitudes_.data());
  const GateMatrix matrix{
      m[0][0].real(), m[0][0].imag(), -m[0][0].imag(),
      m[0][1].real(), m[0][1].imag(), -m[0][1].imag(),
      m[1][0].real(), m[1][0].imag(), -m[1][0].imag(),
      m[1][1].real(), m[1][1].imag(), -m[1][1].imag()};
  ForEachBlock(pairs, num_qubits_, [&](std::size_t begin, std::size_t end) {
    ApplySingleQubitPairs(amp, begin, end, stride, matrix);
  });
}

void Statevector::ApplyGate(const Gate& gate) {
  QOPT_CHECK(gate.qubit0 >= 0 && gate.qubit0 < num_qubits_);
  const double half = gate.param / 2.0;
  switch (gate.kind) {
    case GateKind::kH: {
      const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
      const Complex m[2][2] = {{inv_sqrt2, inv_sqrt2},
                               {inv_sqrt2, -inv_sqrt2}};
      ApplySingleQubit(gate.qubit0, m);
      return;
    }
    case GateKind::kX: {
      const Complex m[2][2] = {{0.0, 1.0}, {1.0, 0.0}};
      ApplySingleQubit(gate.qubit0, m);
      return;
    }
    case GateKind::kY: {
      const Complex m[2][2] = {{0.0, -kI}, {kI, 0.0}};
      ApplySingleQubit(gate.qubit0, m);
      return;
    }
    case GateKind::kZ: {
      const Complex m[2][2] = {{1.0, 0.0}, {0.0, -1.0}};
      ApplySingleQubit(gate.qubit0, m);
      return;
    }
    case GateKind::kSx: {
      const Complex a = (1.0 + kI) / 2.0;
      const Complex b = (1.0 - kI) / 2.0;
      const Complex m[2][2] = {{a, b}, {b, a}};
      ApplySingleQubit(gate.qubit0, m);
      return;
    }
    case GateKind::kRx: {
      const Complex c = std::cos(half);
      const Complex s = -kI * std::sin(half);
      const Complex m[2][2] = {{c, s}, {s, c}};
      ApplySingleQubit(gate.qubit0, m);
      return;
    }
    case GateKind::kRy: {
      const double c = std::cos(half);
      const double s = std::sin(half);
      const Complex m[2][2] = {{c, -s}, {s, c}};
      ApplySingleQubit(gate.qubit0, m);
      return;
    }
    case GateKind::kRz: {
      const Complex m[2][2] = {{std::exp(-kI * half), 0.0},
                               {0.0, std::exp(kI * half)}};
      ApplySingleQubit(gate.qubit0, m);
      return;
    }
    case GateKind::kCx: {
      QOPT_CHECK(gate.qubit1 >= 0 && gate.qubit1 < num_qubits_);
      const std::size_t control = std::size_t{1} << gate.qubit0;
      const std::size_t target = std::size_t{1} << gate.qubit1;
      const std::size_t low = std::min(control, target);
      const std::size_t high = std::max(control, target);
      const std::size_t quarter = amplitudes_.size() / 4;
      Complex* amp = amplitudes_.data();
      // Enumerate the quarter of basis states with control = 1, target = 0
      // directly instead of scanning and branching over all 2^n.
      ForEachBlock(quarter, num_qubits_,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t k = begin; k < end; ++k) {
                       const std::size_t base =
                           InsertZeroBit(InsertZeroBit(k, low), high);
                       const std::size_t i0 = base | control;
                       std::swap(amp[i0], amp[i0 | target]);
                     }
                   });
      return;
    }
    case GateKind::kCz: {
      QOPT_CHECK(gate.qubit1 >= 0 && gate.qubit1 < num_qubits_);
      const std::size_t b0 = std::size_t{1} << gate.qubit0;
      const std::size_t b1 = std::size_t{1} << gate.qubit1;
      const std::size_t low = std::min(b0, b1);
      const std::size_t high = std::max(b0, b1);
      const std::size_t quarter = amplitudes_.size() / 4;
      Complex* amp = amplitudes_.data();
      ForEachBlock(quarter, num_qubits_,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t k = begin; k < end; ++k) {
                       const std::size_t i =
                           InsertZeroBit(InsertZeroBit(k, low), high) | b0 |
                           b1;
                       amp[i] = -amp[i];
                     }
                   });
      return;
    }
    case GateKind::kRzz: {
      QOPT_CHECK(gate.qubit1 >= 0 && gate.qubit1 < num_qubits_);
      // exp(-i theta/2 Z(x)Z): phase e^{-i theta/2} when the two bits are
      // equal (Z(x)Z eigenvalue +1), e^{+i theta/2} otherwise.
      const Complex equal_phase = std::exp(-kI * half);
      const Complex diff_phase = std::exp(kI * half);
      const std::size_t b0 = std::size_t{1} << gate.qubit0;
      const std::size_t b1 = std::size_t{1} << gate.qubit1;
      const std::size_t low = std::min(b0, b1);
      const std::size_t high = std::max(b0, b1);
      const std::size_t quarter = amplitudes_.size() / 4;
      Complex* amp = amplitudes_.data();
      ForEachBlock(quarter, num_qubits_,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t k = begin; k < end; ++k) {
                       const std::size_t base =
                           InsertZeroBit(InsertZeroBit(k, low), high);
                       amp[base] *= equal_phase;
                       amp[base | b0 | b1] *= equal_phase;
                       amp[base | b0] *= diff_phase;
                       amp[base | b1] *= diff_phase;
                     }
                   });
      return;
    }
    case GateKind::kSwap: {
      QOPT_CHECK(gate.qubit1 >= 0 && gate.qubit1 < num_qubits_);
      const std::size_t b0 = std::size_t{1} << gate.qubit0;
      const std::size_t b1 = std::size_t{1} << gate.qubit1;
      const std::size_t low = std::min(b0, b1);
      const std::size_t high = std::max(b0, b1);
      const std::size_t quarter = amplitudes_.size() / 4;
      Complex* amp = amplitudes_.data();
      ForEachBlock(quarter, num_qubits_,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t k = begin; k < end; ++k) {
                       const std::size_t base =
                           InsertZeroBit(InsertZeroBit(k, low), high);
                       std::swap(amp[base | b0], amp[base | b1]);
                     }
                   });
      return;
    }
  }
  QOPT_CHECK_MSG(false, "unknown gate kind");
}

bool IsDiagonalGate(GateKind kind) {
  return kind == GateKind::kZ || kind == GateKind::kRz ||
         kind == GateKind::kCz || kind == GateKind::kRzz;
}

void Statevector::ApplyFusedDiagonal(const std::vector<Gate>& gates,
                                     std::size_t begin, std::size_t end) {
  const int n = num_qubits_;
  constexpr double kPi = std::numbers::pi;
  // A run of diagonal gates multiplies each basis state |b> by
  // e^{i angle(b)} with angle(b) = c + sum_i f_i s_i + sum_{i<j} J_ij
  // s_i s_j over spins s = 2b - 1 — an Ising energy function. Accumulate
  // its coefficients, then fill the angle table with the same Gray-code
  // walk IsingEnergyTable uses: O(2^n) total instead of one 2^n pass per
  // gate.
  double constant = 0.0;
  std::vector<double> field(static_cast<std::size_t>(n), 0.0);
  std::map<std::pair<int, int>, double> coupling;  // ordered => reproducible
  for (std::size_t g = begin; g < end; ++g) {
    const Gate& gate = gates[g];
    QOPT_CHECK(gate.qubit0 >= 0 && gate.qubit0 < n);
    const std::size_t q0 = static_cast<std::size_t>(gate.qubit0);
    switch (gate.kind) {
      case GateKind::kRz:
        // diag(e^{-i t/2}, e^{+i t/2}): angle = (t/2) s.
        field[q0] += gate.param / 2.0;
        break;
      case GateKind::kZ:
        // diag(1, -1): angle = pi b = (pi/2)(1 + s).
        constant += kPi / 2.0;
        field[q0] += kPi / 2.0;
        break;
      case GateKind::kCz: {
        QOPT_CHECK(gate.qubit1 >= 0 && gate.qubit1 < n);
        // angle = pi b0 b1 = (pi/4)(1 + s0)(1 + s1).
        const auto [a, b] = std::minmax(gate.qubit0, gate.qubit1);
        constant += kPi / 4.0;
        field[static_cast<std::size_t>(a)] += kPi / 4.0;
        field[static_cast<std::size_t>(b)] += kPi / 4.0;
        coupling[{a, b}] += kPi / 4.0;
        break;
      }
      case GateKind::kRzz: {
        QOPT_CHECK(gate.qubit1 >= 0 && gate.qubit1 < n);
        // e^{-i t/2} on equal bits, e^{+i t/2} otherwise: angle =
        // -(t/2) s0 s1.
        const auto [a, b] = std::minmax(gate.qubit0, gate.qubit1);
        coupling[{a, b}] -= gate.param / 2.0;
        break;
      }
      default:
        QOPT_CHECK_MSG(false, "non-diagonal gate in fused run");
    }
  }

  std::vector<std::vector<std::pair<int, double>>> adjacency(
      static_cast<std::size_t>(n));
  for (const auto& [edge, j] : coupling) {
    adjacency[static_cast<std::size_t>(edge.first)].emplace_back(edge.second,
                                                                 j);
    adjacency[static_cast<std::size_t>(edge.second)].emplace_back(edge.first,
                                                                  j);
  }

  const std::size_t total = amplitudes_.size();
  phase_scratch_.resize(total);
  // State 0 has every spin -1.
  double angle = constant;
  for (int q = 0; q < n; ++q) angle -= field[static_cast<std::size_t>(q)];
  for (const auto& [edge, j] : coupling) {
    (void)edge;
    angle += j;
  }
  std::vector<int> spins(static_cast<std::size_t>(n), -1);
  phase_scratch_[0] = angle;
  std::size_t gray = 0;
  for (std::size_t k = 1; k < total; ++k) {
    const int flip = std::countr_zero(k);
    const int s = spins[static_cast<std::size_t>(flip)];
    double local = field[static_cast<std::size_t>(flip)];
    for (const auto& [j, coeff] : adjacency[static_cast<std::size_t>(flip)]) {
      local += coeff * spins[static_cast<std::size_t>(j)];
    }
    angle -= 2.0 * s * local;
    spins[static_cast<std::size_t>(flip)] = -s;
    gray ^= std::size_t{1} << flip;
    phase_scratch_[gray] = angle;
  }

  Complex* amp = amplitudes_.data();
  const double* phase = phase_scratch_.data();
  ForEachBlock(total, num_qubits_, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      amp[i] *= Complex(std::cos(phase[i]), std::sin(phase[i]));
    }
  });
}

void Statevector::ApplyCircuit(const QuantumCircuit& circuit) {
  ApplyCircuit(circuit, Deadline::Infinite()).IgnoreError();
}

Status Statevector::ApplyCircuit(const QuantumCircuit& circuit,
                                 const Deadline& deadline) {
  QOPT_CHECK(circuit.NumQubits() == num_qubits_);
  const std::vector<Gate>& gates = circuit.Gates();
  const bool bounded = !deadline.unbounded() || deadline.token() != nullptr;
  std::size_t i = 0;
  // QQO_LOOP(statevector.gate)
  while (i < gates.size()) {
    if (bounded) QOPT_RETURN_IF_ERROR(deadline.Check());
    if (IsDiagonalGate(gates[i].kind)) {
      std::size_t j = i + 1;
      while (j < gates.size() && IsDiagonalGate(gates[j].kind)) ++j;
      if (j - i >= 2) {
        ApplyFusedDiagonal(gates, i, j);
        QQO_COUNT("statevector.gates", static_cast<long long>(j - i));
        i = j;
        continue;
      }
    }
    ApplyGate(gates[i]);
    QQO_COUNT("statevector.gates", 1);
    ++i;
  }
  return OkStatus();
}

std::vector<double> Statevector::Probabilities() const {
  std::vector<double> probs(amplitudes_.size());
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    probs[i] = std::norm(amplitudes_[i]);
  }
  return probs;
}

std::vector<double> Statevector::CumulativeProbabilities() const {
  std::vector<double> cdf(amplitudes_.size());
  double cumulative = 0.0;
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    cumulative += std::norm(amplitudes_[i]);
    cdf[i] = cumulative;
  }
  return cdf;
}

double Statevector::NormSquared() const {
  double norm = 0.0;
  for (const Complex& a : amplitudes_) norm += std::norm(a);
  return norm;
}

double Statevector::EnergyExpectation(
    const std::vector<double>& energies) const {
  QOPT_CHECK(energies.size() == amplitudes_.size());
  double expectation = 0.0;
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    expectation += std::norm(amplitudes_[i]) * energies[i];
  }
  return expectation;
}

std::vector<std::uint8_t> Statevector::Sample(Rng* rng) const {
  const double r = rng->NextDouble();
  double cumulative = 0.0;
  std::size_t chosen = amplitudes_.size() - 1;
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    cumulative += std::norm(amplitudes_[i]);
    if (r < cumulative) {
      chosen = i;
      break;
    }
  }
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(num_qubits_));
  for (int q = 0; q < num_qubits_; ++q) {
    bits[static_cast<std::size_t>(q)] =
        static_cast<std::uint8_t>((chosen >> q) & 1u);
  }
  return bits;
}

std::vector<std::uint8_t> Statevector::SampleFromCdf(
    const std::vector<double>& cdf, Rng* rng) const {
  QOPT_CHECK(cdf.size() == amplitudes_.size());
  const double r = rng->NextDouble();
  // First index with r < cdf[i] — the same state the linear scan in
  // Sample() picks, because cdf holds the identical partial sums.
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
  const std::size_t chosen = it == cdf.end()
                                 ? cdf.size() - 1
                                 : static_cast<std::size_t>(it - cdf.begin());
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(num_qubits_));
  for (int q = 0; q < num_qubits_; ++q) {
    bits[static_cast<std::size_t>(q)] =
        static_cast<std::uint8_t>((chosen >> q) & 1u);
  }
  return bits;
}

std::vector<double> IsingEnergyTable(const IsingModel& ising) {
  const int n = ising.NumSpins();
  QOPT_CHECK_MSG(n <= kMaxStatevectorQubits, "energy table too large");
  // Adjacency for O(degree) spin-flip deltas.
  std::vector<std::vector<std::pair<int, double>>> adjacency(
      static_cast<std::size_t>(n));
  for (const auto& [edge, j] : ising.Couplings()) {
    adjacency[static_cast<std::size_t>(edge.first)].emplace_back(edge.second,
                                                                 j);
    adjacency[static_cast<std::size_t>(edge.second)].emplace_back(edge.first,
                                                                  j);
  }
  const std::size_t total = std::size_t{1} << n;
  std::vector<double> table(total, 0.0);
  // Walk basis states in Gray-code order, tracking the spin configuration
  // (basis bit b -> spin 2b-1) and updating the energy incrementally.
  std::vector<int> spins(static_cast<std::size_t>(n), -1);
  double energy = ising.Energy(spins);
  std::size_t gray = 0;
  table[0] = energy;  // Gray code 0 == basis index 0.
  for (std::size_t k = 1; k < total; ++k) {
    const int flip = std::countr_zero(k);
    const int s = spins[static_cast<std::size_t>(flip)];
    double local = ising.Field(flip);
    for (const auto& [j, coeff] : adjacency[static_cast<std::size_t>(flip)]) {
      local += coeff * spins[static_cast<std::size_t>(j)];
    }
    energy -= 2.0 * s * local;
    spins[static_cast<std::size_t>(flip)] = -s;
    gray ^= std::size_t{1} << flip;
    table[gray] = energy;
  }
  return table;
}

Statevector SimulateCircuit(const QuantumCircuit& circuit) {
  Statevector state(circuit.NumQubits());
  state.ApplyCircuit(circuit);
  return state;
}

}  // namespace qopt
