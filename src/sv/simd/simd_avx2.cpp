// AVX2+FMA kernels: 256-bit vectors over interleaved complex amplitudes
// (2 complex<double> or 4 complex<float> per register), applied to a
// counter range (sv/kernels.hpp).
//
// The low-target cases — the pair partner sits inside the vector — are
// handled with in-register permutes instead of scalar fallback: this is
// exactly the permute strategy the paper analyzes for SVE on A64FX,
// transplanted to AVX2. target >= lanes runs are unit-stride streams.
// Complex multiply uses the movedup/permute + fmaddsub idiom, so results
// can differ from the scalar reference by FMA contraction (<= a few ulps
// per gate); Hadamard keeps the scalar operation order and stays exact.
// Range heads and tails that do not fill a vector run scalar code that
// rounds exactly like the vector lanes, so results never depend on the
// range split. No entry calls the scalar reference table: this TU is
// built with -mfma, and instantiating those shared templates here could
// hand FMA code to the scalar backend.
//
// Compiled only when the TU is built with -mavx2 -mfma (see
// src/sv/CMakeLists.txt); otherwise this file still links and reports
// compiled = false.

#include "sv/simd/backend_tables.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)
#define SVSIM_HAVE_AVX2_KERNELS 1
#include <immintrin.h>

#include <cmath>
#endif

namespace svsim::sv::simd::detail {

#if defined(SVSIM_HAVE_AVX2_KERNELS)

namespace {

constexpr std::size_t idx(KernelClass c) { return static_cast<std::size_t>(c); }

// ---- range walkers ---------------------------------------------------------

/// Walks counters [begin, end) in granules of `g` counters (a power of two)
/// that one vector covers: whole aligned granules go to vec(c), the
/// unaligned head and tail counters to scalar(c).
template <typename Vec, typename Scalar>
inline void for_granules(std::uint64_t begin, std::uint64_t end,
                         std::uint64_t g, Vec&& vec, Scalar&& scalar) {
  std::uint64_t c = begin;
  for (; c < end && (c & (g - 1)) != 0; ++c) scalar(c);
  for (; c + g <= end; c += g) vec(c);
  for (; c < end; ++c) scalar(c);
}

// ---- scalar mirrors of the vector arithmetic ------------------------------
//
// Counters that do not fill a vector go through these. Each reproduces the
// vector rounding lane for lane (cmul_fma is one fmaddsub lane), so an
// amplitude gets the same bits whichever path reaches it and a range split
// never changes a result.

template <typename T>
inline std::complex<T> cmul_fma(std::complex<T> a, std::complex<T> b) {
  return {std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
          std::fma(a.imag(), b.real(), a.real() * b.imag())};
}

template <typename T>
inline void h_pair(std::complex<T>& lo, std::complex<T>& hi, T s) {
  const std::complex<T> a0 = lo, a1 = hi;
  lo = {(a0.real() + a1.real()) * s, (a0.imag() + a1.imag()) * s};
  hi = {(a0.real() - a1.real()) * s, (a0.imag() - a1.imag()) * s};
}

template <typename T>
inline void m1_pair(std::complex<T>& lo, std::complex<T>& hi,
                    const std::complex<T>* m) {
  const std::complex<T> a0 = lo, a1 = hi;
  lo = cmul_fma(a0, m[0]) + cmul_fma(a1, m[1]);
  hi = cmul_fma(a0, m[2]) + cmul_fma(a1, m[3]);
}

/// One Matrix2 quad at counter c, summed in the vector order.
template <typename T>
inline void m2_quad(std::complex<T>* psi, const PreparedGate<T>& pg,
                    std::uint64_t c) {
  const std::complex<T>* m = pg.coeff.data();
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  const std::uint64_t base = insert_zero_bits(c, pg.sorted);
  const std::uint64_t i[4] = {base, base | b0, base | b1, base | b0 | b1};
  const std::complex<T> a[4] = {psi[i[0]], psi[i[1]], psi[i[2]], psi[i[3]]};
  for (int r = 0; r < 4; ++r)
    psi[i[r]] = (cmul_fma(a[0], m[4 * r]) + cmul_fma(a[1], m[4 * r + 1])) +
                (cmul_fma(a[2], m[4 * r + 2]) + cmul_fma(a[3], m[4 * r + 3]));
}

/// Runs pair(lo, hi) on the amplitude pair of counter c on target t.
template <typename T, typename Pair>
inline void at_pair(std::complex<T>* psi, unsigned t, std::uint64_t c,
                    Pair&& pair) {
  std::complex<T>* lo = psi + insert_zero_bit(c, t);
  pair(lo[0], lo[pow2(t)]);
}

// ---- double: 2 complexes per __m256d -------------------------------------

// A complex constant pre-split into re/im broadcasts so the per-element
// multiply is one permute + one mul + one fmaddsub.
struct CconstD {
  __m256d re, im;
};

inline CconstD cdup_d(std::complex<double> x) {
  return {_mm256_set1_pd(x.real()), _mm256_set1_pd(x.imag())};
}

// Per-complex-lane constants [x, y] (lane 0 gets x, lane 1 gets y).
inline CconstD cpair_d(std::complex<double> x, std::complex<double> y) {
  return {_mm256_setr_pd(x.real(), x.real(), y.real(), y.real()),
          _mm256_setr_pd(x.imag(), x.imag(), y.imag(), y.imag())};
}

inline __m256d cmul_d(__m256d a, const CconstD& b) {
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);  // swap re<->im per complex
  return _mm256_fmaddsub_pd(a, b.re, _mm256_mul_pd(a_sw, b.im));
}

// At t = 0 one vector holds exactly one pair (counter c at amplitude 2c),
// so the in-register paths need no scalar head or tail.

void hadamard_d(std::complex<double>* psi, const PreparedGate<double>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const double s = 0.70710678118654752440;
  const __m256d vs = _mm256_set1_pd(s);
  double* p = reinterpret_cast<double*>(psi);
  if (pg.target == 0) {
    // Partner is the adjacent complex: swap the 128-bit halves.
    for (std::uint64_t c = begin; c < end; ++c) {
      const __m256d v = _mm256_loadu_pd(p + 4 * c);
      const __m256d w = _mm256_permute2f128_pd(v, v, 0x01);
      const __m256d plus = _mm256_mul_pd(_mm256_add_pd(v, w), vs);
      const __m256d minus = _mm256_mul_pd(_mm256_sub_pd(w, v), vs);
      _mm256_storeu_pd(p + 4 * c, _mm256_blend_pd(plus, minus, 0xC));
    }
    return;
  }
  for_run_vectors(
      psi, pg.target, begin, end, 2,
      [&](double* lo, double* hi) {
        const __m256d a0 = _mm256_loadu_pd(lo);
        const __m256d a1 = _mm256_loadu_pd(hi);
        _mm256_storeu_pd(lo, _mm256_mul_pd(_mm256_add_pd(a0, a1), vs));
        _mm256_storeu_pd(hi, _mm256_mul_pd(_mm256_sub_pd(a0, a1), vs));
      },
      [&](std::complex<double>& lo, std::complex<double>& hi) {
        h_pair(lo, hi, s);
      });
}

void diag1_d(std::complex<double>* psi, const PreparedGate<double>& pg,
             std::uint64_t begin, std::uint64_t end) {
  const std::complex<double> f0 = pg.coeff[0], f1 = pg.coeff[1];
  double* p = reinterpret_cast<double*>(psi);
  if (pg.target == 0) {
    // lo/hi alternate within the vector: one strided-free pass.
    const CconstD c01 = cpair_d(f0, f1);
    for (std::uint64_t c = begin; c < end; ++c)
      _mm256_storeu_pd(p + 4 * c, cmul_d(_mm256_loadu_pd(p + 4 * c), c01));
    return;
  }
  const bool skip_lower = (f0 == std::complex<double>{1.0, 0.0});
  const CconstD c0 = cdup_d(f0), c1 = cdup_d(f1);
  for_run_vectors(
      psi, pg.target, begin, end, 2,
      [&](double* lo, double* hi) {
        if (!skip_lower) _mm256_storeu_pd(lo, cmul_d(_mm256_loadu_pd(lo), c0));
        _mm256_storeu_pd(hi, cmul_d(_mm256_loadu_pd(hi), c1));
      },
      [&](std::complex<double>& lo, std::complex<double>& hi) {
        if (!skip_lower) lo = cmul_fma(lo, f0);
        hi = cmul_fma(hi, f1);
      });
}

void matrix1_d(std::complex<double>* psi, const PreparedGate<double>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const std::complex<double>* m = pg.coeff.data();
  double* p = reinterpret_cast<double*>(psi);
  if (pg.target == 0) {
    // v holds [a0, a1]; the swapped vector supplies the cross terms.
    const CconstD c1 = cpair_d(m[0], m[3]);
    const CconstD c2 = cpair_d(m[1], m[2]);
    for (std::uint64_t c = begin; c < end; ++c) {
      const __m256d v = _mm256_loadu_pd(p + 4 * c);
      const __m256d w = _mm256_permute2f128_pd(v, v, 0x01);
      _mm256_storeu_pd(p + 4 * c,
                       _mm256_add_pd(cmul_d(v, c1), cmul_d(w, c2)));
    }
    return;
  }
  const CconstD c00 = cdup_d(m[0]), c01 = cdup_d(m[1]);
  const CconstD c10 = cdup_d(m[2]), c11 = cdup_d(m[3]);
  for_run_vectors(
      psi, pg.target, begin, end, 2,
      [&](double* lo, double* hi) {
        const __m256d a0 = _mm256_loadu_pd(lo);
        const __m256d a1 = _mm256_loadu_pd(hi);
        _mm256_storeu_pd(lo, _mm256_add_pd(cmul_d(a0, c00), cmul_d(a1, c01)));
        _mm256_storeu_pd(hi, _mm256_add_pd(cmul_d(a0, c10), cmul_d(a1, c11)));
      },
      [&](std::complex<double>& lo, std::complex<double>& hi) {
        m1_pair(lo, hi, m);
      });
}

void matrix2_d(std::complex<double>* psi, const PreparedGate<double>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const auto scalar = [&](std::uint64_t c) { m2_quad(psi, pg, c); };
  // Unit-stride quad streams require both operand qubits above the
  // in-vector bit; a gate on qubit 0 runs the scalar mirror throughout.
  if (pg.sorted[0] < 1) {
    for (std::uint64_t c = begin; c < end; ++c) scalar(c);
    return;
  }
  CconstD m[16];
  for (std::size_t k = 0; k < 16; ++k) m[k] = cdup_d(pg.coeff[k]);
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  double* p = reinterpret_cast<double*>(psi);
  for_granules(
      begin, end, 2,
      [&](std::uint64_t c) {
        const std::uint64_t base = insert_zero_bits(c, pg.sorted);
        double* q0 = p + 2 * base;
        double* q1 = p + 2 * (base + b0);
        double* q2 = p + 2 * (base + b1);
        double* q3 = p + 2 * (base + b0 + b1);
        const __m256d a0 = _mm256_loadu_pd(q0);
        const __m256d a1 = _mm256_loadu_pd(q1);
        const __m256d a2 = _mm256_loadu_pd(q2);
        const __m256d a3 = _mm256_loadu_pd(q3);
        _mm256_storeu_pd(
            q0, _mm256_add_pd(_mm256_add_pd(cmul_d(a0, m[0]), cmul_d(a1, m[1])),
                              _mm256_add_pd(cmul_d(a2, m[2]), cmul_d(a3, m[3]))));
        _mm256_storeu_pd(
            q1, _mm256_add_pd(_mm256_add_pd(cmul_d(a0, m[4]), cmul_d(a1, m[5])),
                              _mm256_add_pd(cmul_d(a2, m[6]), cmul_d(a3, m[7]))));
        _mm256_storeu_pd(
            q2,
            _mm256_add_pd(_mm256_add_pd(cmul_d(a0, m[8]), cmul_d(a1, m[9])),
                          _mm256_add_pd(cmul_d(a2, m[10]), cmul_d(a3, m[11]))));
        _mm256_storeu_pd(
            q3,
            _mm256_add_pd(_mm256_add_pd(cmul_d(a0, m[12]), cmul_d(a1, m[13])),
                          _mm256_add_pd(cmul_d(a2, m[14]), cmul_d(a3, m[15]))));
      },
      scalar);
}

// ---- float: 4 complexes per __m256 ---------------------------------------

struct CconstS {
  __m256 re, im;
};

inline CconstS cdup_s(std::complex<float> x) {
  return {_mm256_set1_ps(x.real()), _mm256_set1_ps(x.imag())};
}

// Per-complex-lane constants [a, b, c, d].
inline CconstS cquad_s(std::complex<float> a, std::complex<float> b,
                       std::complex<float> c, std::complex<float> d) {
  return {_mm256_setr_ps(a.real(), a.real(), b.real(), b.real(), c.real(),
                         c.real(), d.real(), d.real()),
          _mm256_setr_ps(a.imag(), a.imag(), b.imag(), b.imag(), c.imag(),
                         c.imag(), d.imag(), d.imag())};
}

inline __m256 cmul_s(__m256 a, const CconstS& b) {
  const __m256 a_sw = _mm256_permute_ps(a, 0xB1);  // swap re<->im per complex
  return _mm256_fmaddsub_ps(a, b.re, _mm256_mul_ps(a_sw, b.im));
}

// Partner permute for target 0 (adjacent complexes, within 128-bit lanes)
// and target 1 (complex pairs, across the 128-bit halves).
inline __m256 swap_t0_s(__m256 v) { return _mm256_permute_ps(v, 0x4E); }
inline __m256 swap_t1_s(__m256 v) { return _mm256_permute2f128_ps(v, v, 0x01); }

// At t <= 1 one vector holds the two pairs of counters c, c + 1 (c even) at
// amplitudes 2c .. 2c + 3; for_granules walks them 2 counters at a time.

void hadamard_s(std::complex<float>* psi, const PreparedGate<float>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const unsigned t = pg.target;
  const float s = static_cast<float>(0.70710678118654752440);
  const __m256 vs = _mm256_set1_ps(s);
  float* p = reinterpret_cast<float*>(psi);
  const auto scalar_pair = [&](std::complex<float>& lo,
                               std::complex<float>& hi) { h_pair(lo, hi, s); };
  if (t <= 1) {
    // Output complex lanes holding "hi" partners: t=0 -> lanes 1,3
    // (floats 2,3,6,7 = 0xCC); t=1 -> lanes 2,3 (floats 4..7 = 0xF0).
    for_granules(
        begin, end, 2,
        [&](std::uint64_t c) {
          const __m256 v = _mm256_loadu_ps(p + 4 * c);
          const __m256 w = (t == 0) ? swap_t0_s(v) : swap_t1_s(v);
          const __m256 plus = _mm256_mul_ps(_mm256_add_ps(v, w), vs);
          const __m256 minus = _mm256_mul_ps(_mm256_sub_ps(w, v), vs);
          _mm256_storeu_ps(p + 4 * c,
                           t == 0 ? _mm256_blend_ps(plus, minus, 0xCC)
                                  : _mm256_blend_ps(plus, minus, 0xF0));
        },
        [&](std::uint64_t c) { at_pair(psi, t, c, scalar_pair); });
    return;
  }
  for_run_vectors(
      psi, t, begin, end, 4,
      [&](float* lo, float* hi) {
        const __m256 a0 = _mm256_loadu_ps(lo);
        const __m256 a1 = _mm256_loadu_ps(hi);
        _mm256_storeu_ps(lo, _mm256_mul_ps(_mm256_add_ps(a0, a1), vs));
        _mm256_storeu_ps(hi, _mm256_mul_ps(_mm256_sub_ps(a0, a1), vs));
      },
      scalar_pair);
}

void diag1_s(std::complex<float>* psi, const PreparedGate<float>& pg,
             std::uint64_t begin, std::uint64_t end) {
  const unsigned t = pg.target;
  const std::complex<float> f0 = pg.coeff[0], f1 = pg.coeff[1];
  float* p = reinterpret_cast<float*>(psi);
  if (t <= 1) {
    // The in-register path scales both halves, so its mirror does too.
    const CconstS c = (t == 0) ? cquad_s(f0, f1, f0, f1)
                               : cquad_s(f0, f0, f1, f1);
    for_granules(
        begin, end, 2,
        [&](std::uint64_t i) {
          _mm256_storeu_ps(p + 4 * i, cmul_s(_mm256_loadu_ps(p + 4 * i), c));
        },
        [&](std::uint64_t i) {
          at_pair(psi, t, i,
                  [&](std::complex<float>& lo, std::complex<float>& hi) {
                    lo = cmul_fma(lo, f0);
                    hi = cmul_fma(hi, f1);
                  });
        });
    return;
  }
  const bool skip_lower = (f0 == std::complex<float>{1.0f, 0.0f});
  const CconstS c0 = cdup_s(f0), c1 = cdup_s(f1);
  for_run_vectors(
      psi, t, begin, end, 4,
      [&](float* lo, float* hi) {
        if (!skip_lower) _mm256_storeu_ps(lo, cmul_s(_mm256_loadu_ps(lo), c0));
        _mm256_storeu_ps(hi, cmul_s(_mm256_loadu_ps(hi), c1));
      },
      [&](std::complex<float>& lo, std::complex<float>& hi) {
        if (!skip_lower) lo = cmul_fma(lo, f0);
        hi = cmul_fma(hi, f1);
      });
}

void matrix1_s(std::complex<float>* psi, const PreparedGate<float>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const unsigned t = pg.target;
  const std::complex<float>* m = pg.coeff.data();
  float* p = reinterpret_cast<float*>(psi);
  const auto scalar_pair = [&](std::complex<float>& lo,
                               std::complex<float>& hi) { m1_pair(lo, hi, m); };
  if (t <= 1) {
    const CconstS c1 = (t == 0) ? cquad_s(m[0], m[3], m[0], m[3])
                                : cquad_s(m[0], m[0], m[3], m[3]);
    const CconstS c2 = (t == 0) ? cquad_s(m[1], m[2], m[1], m[2])
                                : cquad_s(m[1], m[1], m[2], m[2]);
    for_granules(
        begin, end, 2,
        [&](std::uint64_t c) {
          const __m256 v = _mm256_loadu_ps(p + 4 * c);
          const __m256 w = (t == 0) ? swap_t0_s(v) : swap_t1_s(v);
          _mm256_storeu_ps(p + 4 * c,
                           _mm256_add_ps(cmul_s(v, c1), cmul_s(w, c2)));
        },
        [&](std::uint64_t c) { at_pair(psi, t, c, scalar_pair); });
    return;
  }
  const CconstS c00 = cdup_s(m[0]), c01 = cdup_s(m[1]);
  const CconstS c10 = cdup_s(m[2]), c11 = cdup_s(m[3]);
  for_run_vectors(
      psi, t, begin, end, 4,
      [&](float* lo, float* hi) {
        const __m256 a0 = _mm256_loadu_ps(lo);
        const __m256 a1 = _mm256_loadu_ps(hi);
        _mm256_storeu_ps(lo, _mm256_add_ps(cmul_s(a0, c00), cmul_s(a1, c01)));
        _mm256_storeu_ps(hi, _mm256_add_ps(cmul_s(a0, c10), cmul_s(a1, c11)));
      },
      scalar_pair);
}

/// Matrix2 with both operands above the vector (qubits >= 2): four
/// unit-stride quad streams. matrix2_s below serves the other placements.
void matrix2_runs_s(std::complex<float>* psi, const PreparedGate<float>& pg,
                    std::uint64_t begin, std::uint64_t end) {
  const auto scalar = [&](std::uint64_t c) { m2_quad(psi, pg, c); };
  CconstS m[16];
  for (std::size_t k = 0; k < 16; ++k) m[k] = cdup_s(pg.coeff[k]);
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  float* p = reinterpret_cast<float*>(psi);
  for_granules(
      begin, end, 4,
      [&](std::uint64_t c) {
        const std::uint64_t base = insert_zero_bits(c, pg.sorted);
        float* q0 = p + 2 * base;
        float* q1 = p + 2 * (base + b0);
        float* q2 = p + 2 * (base + b1);
        float* q3 = p + 2 * (base + b0 + b1);
        const __m256 a0 = _mm256_loadu_ps(q0);
        const __m256 a1 = _mm256_loadu_ps(q1);
        const __m256 a2 = _mm256_loadu_ps(q2);
        const __m256 a3 = _mm256_loadu_ps(q3);
        _mm256_storeu_ps(
            q0, _mm256_add_ps(_mm256_add_ps(cmul_s(a0, m[0]), cmul_s(a1, m[1])),
                              _mm256_add_ps(cmul_s(a2, m[2]), cmul_s(a3, m[3]))));
        _mm256_storeu_ps(
            q1, _mm256_add_ps(_mm256_add_ps(cmul_s(a0, m[4]), cmul_s(a1, m[5])),
                              _mm256_add_ps(cmul_s(a2, m[6]), cmul_s(a3, m[7]))));
        _mm256_storeu_ps(
            q2,
            _mm256_add_ps(_mm256_add_ps(cmul_s(a0, m[8]), cmul_s(a1, m[9])),
                          _mm256_add_ps(cmul_s(a2, m[10]), cmul_s(a3, m[11]))));
        _mm256_storeu_ps(
            q3,
            _mm256_add_ps(_mm256_add_ps(cmul_s(a0, m[12]), cmul_s(a1, m[13])),
                          _mm256_add_ps(cmul_s(a2, m[14]), cmul_s(a3, m[15]))));
      },
      scalar);
}

// ---- gather classes: McPhase, DiagK, MatrixK at both precisions -----------
//
// One template per class over a lane-traits struct. A vector holds 2^kLaneBits
// complexes. Operands below kLaneBits ("low" operands) live inside a vector
// and are served by lane masks, per-lane constants and in-register
// permutes; the others only choose which vectors a counter touches.

struct LanesD {
  using T = double;
  using V = __m256d;
  static constexpr unsigned kLaneBits = 1;
  static constexpr std::uint64_t kLanes = 2;
  static V load(const std::complex<double>* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static void store(std::complex<double>* p, V v) {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V fmaddsub(V a, V b, V c) { return _mm256_fmaddsub_pd(a, b, c); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V swap_ri(V a) { return _mm256_permute_pd(a, 0x5); }
  static V blend(V a, V b, V mask) { return _mm256_blendv_pd(a, b, mask); }
  /// Lane l holds c[l] (re and im split).
  static V lanes_re(const std::complex<double>* c) {
    return _mm256_setr_pd(c[0].real(), c[0].real(), c[1].real(), c[1].real());
  }
  static V lanes_im(const std::complex<double>* c) {
    return _mm256_setr_pd(c[0].imag(), c[0].imag(), c[1].imag(), c[1].imag());
  }
  /// Complex lane l takes lane l ^ x.
  static V xor_lanes(V v, std::uint64_t x) {
    return x == 0 ? v : _mm256_permute2f128_pd(v, v, 0x01);
  }
  /// All ones in the complex lanes whose bit is set in `lanes`.
  static V lane_mask(unsigned lanes) {
    const long long l0 = -static_cast<long long>(lanes & 1u);
    const long long l1 = -static_cast<long long>((lanes >> 1) & 1u);
    return _mm256_castsi256_pd(_mm256_setr_epi64x(l0, l0, l1, l1));
  }
};

struct LanesS {
  using T = float;
  using V = __m256;
  static constexpr unsigned kLaneBits = 2;
  static constexpr std::uint64_t kLanes = 4;
  static V load(const std::complex<float>* p) {
    return _mm256_loadu_ps(reinterpret_cast<const float*>(p));
  }
  static void store(std::complex<float>* p, V v) {
    _mm256_storeu_ps(reinterpret_cast<float*>(p), v);
  }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V fmaddsub(V a, V b, V c) { return _mm256_fmaddsub_ps(a, b, c); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V swap_ri(V a) { return _mm256_permute_ps(a, 0xB1); }
  static V blend(V a, V b, V mask) { return _mm256_blendv_ps(a, b, mask); }
  static V lanes_re(const std::complex<float>* c) {
    return _mm256_setr_ps(c[0].real(), c[0].real(), c[1].real(), c[1].real(),
                          c[2].real(), c[2].real(), c[3].real(), c[3].real());
  }
  static V lanes_im(const std::complex<float>* c) {
    return _mm256_setr_ps(c[0].imag(), c[0].imag(), c[1].imag(), c[1].imag(),
                          c[2].imag(), c[2].imag(), c[3].imag(), c[3].imag());
  }
  static V xor_lanes(V v, std::uint64_t x) {
    if ((x & 1u) != 0) v = swap_t0_s(v);
    if ((x & 2u) != 0) v = swap_t1_s(v);
    return v;
  }
  static V lane_mask(unsigned lanes) {
    int m[4];
    for (unsigned l = 0; l < 4; ++l) m[l] = -static_cast<int>((lanes >> l) & 1u);
    return _mm256_castsi256_ps(
        _mm256_setr_epi32(m[0], m[0], m[1], m[1], m[2], m[2], m[3], m[3]));
  }
};

/// A complex constant per lane, re/im split.
template <class A>
struct Cv {
  typename A::V re, im;
};

template <class A>
inline Cv<A> lane_const(const std::complex<typename A::T>* lanes) {
  return {A::lanes_re(lanes), A::lanes_im(lanes)};
}

/// a * b lane by lane, given a's re/im swap; one fmaddsub lane is cmul_fma.
template <class A>
inline typename A::V cmul_v(typename A::V a, typename A::V a_sw,
                            const Cv<A>& b) {
  return A::fmaddsub(a, b.re, A::mul(a_sw, b.im));
}

/// Increments `v` over the values whose `fixed` bits stay clear.
constexpr std::uint64_t next_clear(std::uint64_t v, std::uint64_t fixed) {
  return ((v | fixed) + 1) & ~fixed;
}

/// Walks counters [begin, end) of a class whose counter c addresses the
/// amplitudes insert_zero_bits(c, sorted) | (operand bits). A vector holds
/// the amplitudes of g = kLanes >> (low operands) consecutive counters:
/// vec(base) runs on each whole aligned granule of g counters, with base
/// its insert_zero_bits (vector-aligned); scalar(c) runs on the head and
/// tail counters. The granule bases are the aligned indices with every
/// operand bit clear, in order: contiguous vectors up to the first operand
/// above the vector, then a jump over the operand bits.
template <class A, typename Vec, typename Scalar>
inline void for_gather_vectors(const std::vector<unsigned>& sorted,
                               std::uint64_t begin, std::uint64_t end,
                               Vec&& vec, Scalar&& scalar) {
  std::uint64_t fixed = A::kLanes - 1;
  unsigned low = 0;
  for (unsigned q : sorted) {
    fixed |= pow2(q);
    low += q < A::kLaneBits ? 1 : 0;
  }
  const unsigned g_bits = A::kLaneBits - low;
  const std::uint64_t g = pow2(g_bits);
  // Amplitudes below the first operand above the vector are contiguous.
  const std::uint64_t run = low < sorted.size() ? pow2(sorted[low]) : 0;
  std::uint64_t c = begin;
  for (; c < end && (c & (g - 1)) != 0; ++c) scalar(c);
  // Vectors left, and in each run; only the first run can be partial, so
  // the run lengths never wait on the base arithmetic.
  std::uint64_t left = (end - c) >> g_bits;
  const std::uint64_t per_run = run != 0 ? run / A::kLanes : left;
  std::uint64_t base = left != 0 ? insert_zero_bits(c, sorted) : 0;
  std::uint64_t count =
      run != 0 ? std::min(left, per_run - ((base / A::kLanes) & (per_run - 1)))
               : left;
  c += left << g_bits;
  while (left != 0) {
    for (std::uint64_t v = 0; v < count; ++v) vec(base + v * A::kLanes);
    left -= count;
    base = next_clear(base + (count - 1) * A::kLanes, fixed);
    count = std::min(left, per_run);
  }
  for (; c < end; ++c) scalar(c);
}

/// McPhase: the low operands select lanes, so the vector result is blended
/// back into the other lanes unchanged.
template <class A>
void mc_phase_v(std::complex<typename A::T>* psi,
                const PreparedGate<typename A::T>& pg, std::uint64_t begin,
                std::uint64_t end) {
  using V = typename A::V;
  const std::complex<typename A::T> f = pg.coeff[0];
  const std::uint64_t low = pg.mask & (A::kLanes - 1);
  const std::uint64_t high = pg.mask & ~(A::kLanes - 1);
  unsigned selected = 0;
  for (unsigned l = 0; l < A::kLanes; ++l)
    if ((l & low) == low) selected |= 1u << l;
  const V phased = A::lane_mask(selected);
  const std::complex<typename A::T> fs[4] = {f, f, f, f};
  const Cv<A> cf = lane_const<A>(fs);
  for_gather_vectors<A>(
      pg.sorted, begin, end,
      [&](std::uint64_t base) {
        std::complex<typename A::T>* q = psi + (base | high);
        const V a = A::load(q);
        const V r = cmul_v<A>(a, A::swap_ri(a), cf);
        A::store(q, low == 0 ? r : A::blend(a, r, phased));
      },
      [&](std::uint64_t c) {
        std::complex<typename A::T>& a =
            psi[insert_zero_bits(c, pg.sorted) | pg.mask];
        a = cmul_fma(a, f);
      });
}

/// DiagK widths with a vector path (lane-constant table of 2^k entries).
constexpr unsigned kMaxVecDiagK = 6;

/// Increments `x` over the submasks of `mask`; wraps to 0 after the last.
constexpr std::uint64_t next_submask(std::uint64_t x, std::uint64_t mask) {
  return ((x | ~mask) + 1) & mask;
}

/// Operand bits of DiagK that vary within a block of 2^kInnerBits vectors.
constexpr unsigned kInnerBits = 3;

/// DiagK: counters are amplitudes. The low operands vary across the lanes
/// of a lane-constant entry, the operands just above them (the "inner"
/// ones, below kLaneBits + kInnerBits) across the eight vectors of a
/// block, and the rest (the "outer" ones) only between super-runs of 2^(the
/// lowest of them) amplitudes. Entries whose lanes are all exactly one are
/// skipped (whole super-runs at once when every entry of one is), so a fused
/// diagonal that is the identity on most of the state (controlled phases)
/// touches only the rest.
template <class A>
void diag_k_v(std::complex<typename A::T>* psi,
              const PreparedGate<typename A::T>& pg, std::uint64_t begin,
              std::uint64_t end) {
  using T = typename A::T;
  const auto k = static_cast<unsigned>(pg.qubits.size());
  if (k > kMaxVecDiagK) {
    for (std::uint64_t i = begin; i < end; ++i)
      psi[i] = cmul_fma(psi[i], pg.coeff[gather_bits(i, pg.qubits)]);
    return;
  }
  constexpr unsigned kOuterBit = A::kLaneBits + kInnerBits;
  constexpr std::uint64_t kBlock = pow2(kInnerBits);
  // Entry h (its low-operand index bits clear) holds coeff[h | lane bits].
  std::uint64_t lane_idx[4] = {};
  for (unsigned l = 0; l < A::kLanes; ++l) lane_idx[l] = gather_bits(l, pg.qubits);
  const std::uint64_t low_idx = lane_idx[A::kLanes - 1];
  Cv<A> table[pow2(kMaxVecDiagK)];
  bool identity[pow2(kMaxVecDiagK)] = {};
  for (std::uint64_t h = 0; h < pow2(k); ++h) {
    if ((h & low_idx) != 0) continue;
    std::complex<T> lanes[4];
    identity[h] = true;
    for (unsigned l = 0; l < A::kLanes; ++l) {
      lanes[l] = pg.coeff[h | lane_idx[l]];
      identity[h] = identity[h] && lanes[l] == std::complex<T>{T{1}, T{0}};
    }
    table[h] = lane_const<A>(lanes);
  }
  // inner[v]: the index bits of the inner operands for vector v of a block.
  std::uint64_t inner[kBlock];
  for (std::uint64_t v = 0; v < kBlock; ++v)
    inner[v] = gather_bits(v << A::kLaneBits, pg.qubits);
  const std::uint64_t outer_idx =
      pow2(k) - 1 - gather_bits(pow2(kOuterBit) - 1, pg.qubits);
  // Under outer index h_out, the vectors of a block whose entry is not one,
  // in order: their amplitude offsets and entries (none: the super-run is
  // skipped).
  std::uint64_t offs[pow2(kMaxVecDiagK)][kBlock];
  const Cv<A>* ent[pow2(kMaxVecDiagK)][kBlock];
  unsigned active[pow2(kMaxVecDiagK)] = {};
  for (std::uint64_t h = 0;; h = next_submask(h, outer_idx)) {
    for (std::uint64_t v = 0; v < kBlock; ++v)
      if (!identity[h | inner[v]]) {
        offs[h][active[h]] = v * A::kLanes;
        ent[h][active[h]++] = &table[h | inner[v]];
      }
    if (next_submask(h, outer_idx) == 0) break;
  }
  // The mirror skips exactly the entries the vector path skips.
  const auto scalar = [&](std::uint64_t i) {
    const std::uint64_t h = gather_bits(i, pg.qubits);
    if (!identity[h & ~low_idx]) psi[i] = cmul_fma(psi[i], pg.coeff[h]);
  };
  // From super-run r to r + 1 the bits of r ^ (r + 1) flip -- its trailing
  // ones and the zero above them -- so the outer index flips the operand
  // bits at those positions: flip[t] for t trailing ones.
  unsigned first_outer = 64;
  for (unsigned q : pg.sorted)
    if (q >= kOuterBit) {
      first_outer = q;
      break;
    }
  std::uint64_t flip[64] = {};
  for (unsigned j = 0; j < k; ++j)
    if (pg.qubits[j] >= kOuterBit)
      for (unsigned t = pg.qubits[j] - first_outer; t < 64; ++t)
        flip[t] |= pow2(j);
  std::uint64_t i = begin;
  for (; i < end && (i & (A::kLanes - 1)) != 0; ++i) scalar(i);
  std::uint64_t left = (end - i) / A::kLanes;
  const std::uint64_t per_run =
      first_outer < 64 ? pow2(first_outer) / A::kLanes : left;
  std::uint64_t count =
      first_outer < 64
          ? std::min(left, per_run - ((i / A::kLanes) & (per_run - 1)))
          : left;
  std::uint64_t r = first_outer < 64 ? i >> first_outer : 0;
  std::uint64_t h_out = gather_bits(i, pg.qubits) & outer_idx;
  const bool has_inner = inner[kBlock - 1] != 0;
  while (left != 0) {
    if (active[h_out] == 0) {
      // every entry is one
    } else if (!has_inner) {
      const Cv<A> c = table[h_out];
      for (std::uint64_t v = 0; v < count; ++v) {
        std::complex<T>* q = psi + i + v * A::kLanes;
        const typename A::V a = A::load(q);
        A::store(q, cmul_v<A>(a, A::swap_ri(a), c));
      }
    } else {
      const unsigned n = active[h_out];
      const std::uint64_t* off = offs[h_out];
      const Cv<A>* const* e = ent[h_out];
      const auto at = [&](std::uint64_t amp, unsigned s) {
        std::complex<T>* q = psi + amp + off[s];
        const typename A::V a = A::load(q);
        A::store(q, cmul_v<A>(a, A::swap_ri(a), *e[s]));
      };
      // Whole blocks run every active slot; a partial first or last block
      // only the slots inside [i, end of the super-run).
      const std::uint64_t stop = i + count * A::kLanes;
      constexpr std::uint64_t kBlockAmps = kBlock * A::kLanes;
      for (std::uint64_t b = i & ~(kBlockAmps - 1); b < stop; b += kBlockAmps) {
        if (b >= i && b + kBlockAmps <= stop) {
          for (unsigned s = 0; s < n; ++s) at(b, s);
        } else {
          for (unsigned s = 0; s < n; ++s)
            if (b + off[s] >= i && b + off[s] < stop) at(b, s);
        }
      }
    }
    i += count * A::kLanes;
    left -= count;
    count = std::min(left, per_run);
    h_out ^= flip[__builtin_ctzll(~r) & 63];
    ++r;
  }
  for (; i < end; ++i) scalar(i);
}

// MatrixK sums each output row in one fixed order so the vector lanes and
// the scalar mirror round alike: over the input sub-indices with their
// low-operand bits clear (ascending), then over the low-bit flips x
// (ascending submasks of the low sub-index bits), input = s | (r_low ^ x).

/// acc + a * b as two chained fmas per component: one lane of the vector
/// multiply-accumulate in matrix_k_fixed.
template <typename T>
inline std::complex<T> cmac_fma(std::complex<T> acc, std::complex<T> a,
                                std::complex<T> b) {
  return {std::fma(a.real(), b.real(), std::fma(a.imag(), -b.imag(), acc.real())),
          std::fma(a.imag(), b.real(), std::fma(a.real(), b.imag(), acc.imag()))};
}

/// Scalar mirror of one MatrixK counter; `offs` scatters the sub-indices
/// (PreparedGate::offs for MatrixK).
template <class A>
void matrix_k_counter(std::complex<typename A::T>* psi,
                      const PreparedGate<typename A::T>& pg,
                      const std::uint64_t* offs, std::uint64_t c) {
  using T = typename A::T;
  const std::uint64_t sub = pow2(static_cast<unsigned>(pg.qubits.size()));
  const std::uint64_t low = gather_bits(A::kLanes - 1, pg.qubits);
  const std::uint64_t base = insert_zero_bits(c, pg.sorted);
  std::array<std::complex<T>, pow2(kMaxMatrixK)> in;
  for (std::uint64_t s = 0; s < sub; ++s) in[s] = psi[base | offs[s]];
  for (std::uint64_t r = 0; r < sub; ++r) {
    const std::complex<T>* row = pg.coeff.data() + r * sub;
    std::complex<T> acc;
    bool first = true;
    for (std::uint64_t s = 0; s < sub; s = next_clear(s, low)) {
      std::uint64_t x = 0;
      do {
        const std::uint64_t col = s | ((r & low) ^ x);
        acc = first ? cmul_fma(in[col], row[col])
                    : cmac_fma(acc, in[col], row[col]);
        first = false;
        x = next_submask(x, low);
      } while (x != 0);
    }
    psi[base | offs[r]] = acc;
  }
}

/// MatrixK at width K with KL operands inside the vector: each output
/// vector (row sub-index r, its low bits from the lane) sums the permuted
/// input vectors times per-lane constants.
template <class A, unsigned K, unsigned KL>
void matrix_k_fixed(std::complex<typename A::T>* psi,
                    const PreparedGate<typename A::T>& pg,
                    const std::uint64_t* sub_offs, std::uint64_t begin,
                    std::uint64_t end) {
  using T = typename A::T;
  using V = typename A::V;
  constexpr std::uint64_t kSub = pow2(K);
  constexpr std::uint64_t kFlips = pow2(KL);
  constexpr std::uint64_t kVecs = kSub / kFlips;  // vectors per granule
  const std::uint64_t low = gather_bits(A::kLanes - 1, pg.qubits);
  std::uint64_t lane_idx[4] = {};
  for (unsigned l = 0; l < A::kLanes; ++l) lane_idx[l] = gather_bits(l, pg.qubits);
  std::uint64_t his[kVecs], flip[kFlips], lane_flip[kFlips];
  for (std::uint64_t v = 0, i = 0; v < kSub; v = next_clear(v, low)) his[i++] = v;
  for (std::uint64_t x = 0, i = 0; i < kFlips; ++i, x = next_submask(x, low)) {
    flip[i] = x;
    lane_flip[i] = scatter_bits(x, pg.qubits);
  }
  // table[j * kVecs + ri], j = si * kFlips + xi: lane l holds
  // M[r | lane_idx[l]][s | (lane_idx[l] ^ x)] for the ri-th r and si-th s
  // with low bits clear and the xi-th flip x, its imaginary part negated in
  // the real slot so a multiply-accumulate is two fmas.
  const std::complex<T> signs[4] = {{T{-1}, T{1}}, {T{-1}, T{1}},
                                    {T{-1}, T{1}}, {T{-1}, T{1}}};
  const V sign = A::load(signs);
  Cv<A> table[kSub * kVecs];
  for (std::uint64_t ri = 0; ri < kVecs; ++ri)
    for (std::uint64_t si = 0; si < kVecs; ++si)
      for (std::uint64_t xi = 0; xi < kFlips; ++xi) {
        std::complex<T> lanes[4];
        for (unsigned l = 0; l < A::kLanes; ++l)
          lanes[l] = pg.coeff[(his[ri] | lane_idx[l]) * kSub +
                              (his[si] | (lane_idx[l] ^ flip[xi]))];
        const Cv<A> m = lane_const<A>(lanes);
        table[(si * kFlips + xi) * kVecs + ri] = {m.re, A::mul(m.im, sign)};
      }
  std::uint64_t offs[kVecs];
  for (std::uint64_t i = 0; i < kVecs; ++i) offs[i] = sub_offs[his[i]];
  for_gather_vectors<A>(
      pg.sorted, begin, end,
      [&](std::uint64_t base) {
        V acc[kVecs];
        for (std::uint64_t si = 0; si < kVecs; ++si) {
          const V a = A::load(psi + (base | offs[si]));
          for (std::uint64_t xi = 0; xi < kFlips; ++xi) {
            const std::uint64_t j = si * kFlips + xi;
            const V in = A::xor_lanes(a, lane_flip[xi]);
            const V sw = A::swap_ri(in);
            const Cv<A>* col = table + j * kVecs;
            for (std::uint64_t ri = 0; ri < kVecs; ++ri)
              acc[ri] = j == 0 ? A::fmadd(in, col[ri].re, A::mul(sw, col[ri].im))
                               : A::fmadd(in, col[ri].re,
                                          A::fmadd(sw, col[ri].im, acc[ri]));
          }
        }
        for (std::uint64_t ri = 0; ri < kVecs; ++ri)
          A::store(psi + (base | offs[ri]), acc[ri]);
      },
      [&](std::uint64_t c) { matrix_k_counter<A>(psi, pg, sub_offs, c); });
}

/// MatrixK widths with a vector path (3 and 4); wider gates run the scalar
/// mirror.
template <class A>
void matrix_k_v(std::complex<typename A::T>* psi,
                const PreparedGate<typename A::T>& pg, std::uint64_t begin,
                std::uint64_t end) {
  const auto k = static_cast<unsigned>(pg.qubits.size());
  unsigned kl = 0;
  for (unsigned q : pg.qubits) kl += q < A::kLaneBits ? 1 : 0;
  const std::uint64_t* offs = pg.offs.data();
  switch (k * 4 + kl) {
    case 12: return matrix_k_fixed<A, 3, 0>(psi, pg, offs, begin, end);
    case 13: return matrix_k_fixed<A, 3, 1>(psi, pg, offs, begin, end);
    case 14: return matrix_k_fixed<A, 3, 2>(psi, pg, offs, begin, end);
    case 16: return matrix_k_fixed<A, 4, 0>(psi, pg, offs, begin, end);
    case 17: return matrix_k_fixed<A, 4, 1>(psi, pg, offs, begin, end);
    case 18: return matrix_k_fixed<A, 4, 2>(psi, pg, offs, begin, end);
    default:
      for (std::uint64_t c = begin; c < end; ++c)
        matrix_k_counter<A>(psi, pg, offs, c);
  }
}

/// f32 Matrix2. An operand inside the vector (qubit 0 or 1) runs the
/// MatrixK lane path at k = 2 (lane masks and permutes, with its mirror);
/// otherwise the unit-stride quad streams. f64 Matrix2 on qubit 0 stays on
/// the scalar mirror.
void matrix2_s(std::complex<float>* psi, const PreparedGate<float>& pg,
               std::uint64_t begin, std::uint64_t end) {
  if (pg.sorted[0] >= LanesS::kLaneBits)
    return matrix2_runs_s(psi, pg, begin, end);
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  const std::uint64_t offs[4] = {0, b0, b1, b0 | b1};
  if (pg.sorted[1] < LanesS::kLaneBits)
    matrix_k_fixed<LanesS, 2, 2>(psi, pg, offs, begin, end);
  else
    matrix_k_fixed<LanesS, 2, 1>(psi, pg, offs, begin, end);
}

}  // namespace

const KernelOverrides& avx2_overrides() {
  static const KernelOverrides ov = [] {
    KernelOverrides o;
    o.compiled = true;
    o.vector_bits = 256;
    o.f64[idx(KernelClass::Hadamard)] = &hadamard_d;
    o.f64[idx(KernelClass::Diag1)] = &diag1_d;
    o.f64[idx(KernelClass::Matrix1)] = &matrix1_d;
    o.f64[idx(KernelClass::Matrix2)] = &matrix2_d;
    o.f64[idx(KernelClass::McPhase)] = &mc_phase_v<LanesD>;
    o.f64[idx(KernelClass::DiagK)] = &diag_k_v<LanesD>;
    o.f64[idx(KernelClass::MatrixK)] = &matrix_k_v<LanesD>;
    o.f32[idx(KernelClass::Hadamard)] = &hadamard_s;
    o.f32[idx(KernelClass::Diag1)] = &diag1_s;
    o.f32[idx(KernelClass::Matrix1)] = &matrix1_s;
    o.f32[idx(KernelClass::Matrix2)] = &matrix2_s;
    o.f32[idx(KernelClass::McPhase)] = &mc_phase_v<LanesS>;
    o.f32[idx(KernelClass::DiagK)] = &diag_k_v<LanesS>;
    o.f32[idx(KernelClass::MatrixK)] = &matrix_k_v<LanesS>;
    return o;
  }();
  return ov;
}

#else  // !SVSIM_HAVE_AVX2_KERNELS

const KernelOverrides& avx2_overrides() {
  static const KernelOverrides ov{};
  return ov;
}

#endif

}  // namespace svsim::sv::simd::detail
