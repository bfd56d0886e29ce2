#include "circuit/statevector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numbers>

#include "common/check.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

#if QQO_SIMD_X86
#include <immintrin.h>
#endif
#if QQO_SIMD_NEON
#include <arm_neon.h>
#endif

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

/// Scalar reference kernel for one block of single-qubit-gate pairs. Every
/// vector kernel below performs exactly these primitive FP operations in
/// exactly this order per pair, so the paths are byte-identical.
void ApplySingleQubitScalar(Complex* amp, std::size_t begin, std::size_t end,
                            std::size_t stride, Complex m00, Complex m01,
                            Complex m10, Complex m11) {
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t i0 = InsertZeroBit(k, stride);
    const std::size_t i1 = i0 + stride;
    const Complex a0 = amp[i0];
    const Complex a1 = amp[i1];
    amp[i0] = m00 * a0 + m01 * a1;
    amp[i1] = m10 * a0 + m11 * a1;
  }
}

#if QQO_SIMD_X86

/// Multiplies each 128-bit complex<double> lane of `v` by the matching
/// lane of `c`. addsub keeps the scalar operation order: the real lane is
/// c.re*v.re - c.im*v.im (two multiplies, one subtraction), the imaginary
/// lane c.re*v.im + c.im*v.re (two multiplies, one addition) — the exact
/// formula libstdc++ uses for finite complex products. No FMA contraction
/// (the target attribute enables avx2 only), so rounding matches the
/// scalar path bit for bit.
QQO_SIMD_TARGET_AVX2 inline __m256d CMulAvx2(__m256d c, __m256d v) {
  const __m256d c_re = _mm256_movedup_pd(c);       // [c.re, c.re | ...]
  const __m256d c_im = _mm256_permute_pd(c, 0xF);  // [c.im, c.im | ...]
  const __m256d v_sw = _mm256_permute_pd(v, 0x5);  // [v.im, v.re | ...]
  return _mm256_addsub_pd(_mm256_mul_pd(c_re, v), _mm256_mul_pd(c_im, v_sw));
}

QQO_SIMD_TARGET_AVX2 inline __m256d BroadcastComplexAvx2(Complex c) {
  return _mm256_setr_pd(c.real(), c.imag(), c.real(), c.imag());
}

/// AVX2 single-qubit kernel over pair indices [begin, end). For stride >=
/// 2 both pair halves are contiguous runs (runs are stride-aligned, stride
/// and begin are even), so two adjacent pairs load as one 256-bit vector
/// per half. For stride == 1 each pair is two adjacent amplitudes in one
/// vector, transformed in-register with per-lane matrix columns.
QQO_SIMD_TARGET_AVX2 void ApplySingleQubitAvx2(Complex* amp,
                                               std::size_t begin,
                                               std::size_t end,
                                               std::size_t stride, Complex m00,
                                               Complex m01, Complex m10,
                                               Complex m11) {
  std::size_t k = begin;
  if (stride >= 2) {
    const __m256d vm00 = BroadcastComplexAvx2(m00);
    const __m256d vm01 = BroadcastComplexAvx2(m01);
    const __m256d vm10 = BroadcastComplexAvx2(m10);
    const __m256d vm11 = BroadcastComplexAvx2(m11);
    for (; k + 2 <= end; k += 2) {
      const std::size_t i0 = InsertZeroBit(k, stride);
      double* p0 = reinterpret_cast<double*>(amp + i0);
      double* p1 = reinterpret_cast<double*>(amp + i0 + stride);
      const __m256d a0 = _mm256_loadu_pd(p0);  // pairs k, k+1: |q>=0 half
      const __m256d a1 = _mm256_loadu_pd(p1);  // pairs k, k+1: |q>=1 half
      _mm256_storeu_pd(p0, _mm256_add_pd(CMulAvx2(vm00, a0),
                                         CMulAvx2(vm01, a1)));
      _mm256_storeu_pd(p1, _mm256_add_pd(CMulAvx2(vm10, a0),
                                         CMulAvx2(vm11, a1)));
    }
  } else {
    // Lane 0 of the column vectors transforms into the new a0, lane 1
    // into the new a1: [m00|m10] * [a0|a0] + [m01|m11] * [a1|a1].
    const __m256d vlo = _mm256_setr_pd(m00.real(), m00.imag(), m10.real(),
                                       m10.imag());
    const __m256d vhi = _mm256_setr_pd(m01.real(), m01.imag(), m11.real(),
                                       m11.imag());
    for (; k < end; ++k) {
      double* p = reinterpret_cast<double*>(amp + 2 * k);
      const __m256d v = _mm256_loadu_pd(p);                   // [a0 | a1]
      const __m256d va = _mm256_permute2f128_pd(v, v, 0x00);  // [a0 | a0]
      const __m256d vb = _mm256_permute2f128_pd(v, v, 0x11);  // [a1 | a1]
      _mm256_storeu_pd(p, _mm256_add_pd(CMulAvx2(vlo, va), CMulAvx2(vhi, vb)));
    }
  }
  // Odd tail (only possible for degenerate block sizes; blocks and pair
  // counts are even for every real state width).
  ApplySingleQubitScalar(amp, k, end, stride, m00, m01, m10, m11);
}

#endif  // QQO_SIMD_X86

#if QQO_SIMD_NEON

/// One complex<double> per 128-bit vector. The sign-flip multiply makes
/// the real lane t1.re + (-(c.im*v.im)) — IEEE addition of a negation is
/// bit-identical to the scalar subtraction c.re*v.re - c.im*v.im.
inline float64x2_t CMulNeon(float64x2_t c_re, float64x2_t c_im,
                            float64x2_t v) {
  const float64x2_t kSign = {-1.0, 1.0};
  const float64x2_t v_sw = vextq_f64(v, v, 1);  // [v.im, v.re]
  const float64x2_t t1 = vmulq_f64(c_re, v);
  const float64x2_t t2 = vmulq_f64(vmulq_f64(c_im, v_sw), kSign);
  return vaddq_f64(t1, t2);
}

void ApplySingleQubitNeon(Complex* amp, std::size_t begin, std::size_t end,
                          std::size_t stride, Complex m00, Complex m01,
                          Complex m10, Complex m11) {
  const float64x2_t m00r = vdupq_n_f64(m00.real());
  const float64x2_t m00i = vdupq_n_f64(m00.imag());
  const float64x2_t m01r = vdupq_n_f64(m01.real());
  const float64x2_t m01i = vdupq_n_f64(m01.imag());
  const float64x2_t m10r = vdupq_n_f64(m10.real());
  const float64x2_t m10i = vdupq_n_f64(m10.imag());
  const float64x2_t m11r = vdupq_n_f64(m11.real());
  const float64x2_t m11i = vdupq_n_f64(m11.imag());
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t i0 = InsertZeroBit(k, stride);
    const std::size_t i1 = i0 + stride;
    double* p0 = reinterpret_cast<double*>(amp + i0);
    double* p1 = reinterpret_cast<double*>(amp + i1);
    const float64x2_t a0 = vld1q_f64(p0);
    const float64x2_t a1 = vld1q_f64(p1);
    vst1q_f64(p0, vaddq_f64(CMulNeon(m00r, m00i, a0), CMulNeon(m01r, m01i, a1)));
    vst1q_f64(p1, vaddq_f64(CMulNeon(m10r, m10i, a0), CMulNeon(m11r, m11i, a1)));
  }
}

#endif  // QQO_SIMD_NEON

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
  Complex* amp = amplitudes_.data();
  const Complex m00 = m[0][0], m01 = m[0][1], m10 = m[1][0], m11 = m[1][1];
  const SimdLevel level = ActiveSimdLevel();
  (void)level;  // unused when no vector kernel is compiled in
#if QQO_SIMD_X86
  if (level == SimdLevel::kAvx2) {
    ForEachBlock(pairs, num_qubits_, [&](std::size_t begin, std::size_t end) {
      ApplySingleQubitAvx2(amp, begin, end, stride, m00, m01, m10, m11);
    });
    return;
  }
#endif
#if QQO_SIMD_NEON
  if (level == SimdLevel::kNeon) {
    ForEachBlock(pairs, num_qubits_, [&](std::size_t begin, std::size_t end) {
      ApplySingleQubitNeon(amp, begin, end, stride, m00, m01, m10, m11);
    });
    return;
  }
#endif
  ForEachBlock(pairs, num_qubits_, [&](std::size_t begin, std::size_t end) {
    ApplySingleQubitScalar(amp, begin, end, stride, m00, m01, m10, m11);
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

double Statevector::IsingExpectation(const IsingModel& ising) const {
  QOPT_CHECK(ising.NumSpins() == num_qubits_);
  return EnergyExpectation(IsingEnergyTable(ising));
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

std::vector<std::uint8_t> Statevector::MostProbableBits() const {
  std::size_t best = 0;
  double best_prob = -1.0;
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    const double p = std::norm(amplitudes_[i]);
    if (p > best_prob) {
      best_prob = p;
      best = i;
    }
  }
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(num_qubits_));
  for (int q = 0; q < num_qubits_; ++q) {
    bits[static_cast<std::size_t>(q)] =
        static_cast<std::uint8_t>((best >> q) & 1u);
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
