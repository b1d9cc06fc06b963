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

void matrix2_s(std::complex<float>* psi, const PreparedGate<float>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const auto scalar = [&](std::uint64_t c) { m2_quad(psi, pg, c); };
  if (pg.sorted[0] < 2) {
    for (std::uint64_t c = begin; c < end; ++c) scalar(c);
    return;
  }
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
    o.f32[idx(KernelClass::Hadamard)] = &hadamard_s;
    o.f32[idx(KernelClass::Diag1)] = &diag1_s;
    o.f32[idx(KernelClass::Matrix1)] = &matrix1_s;
    o.f32[idx(KernelClass::Matrix2)] = &matrix2_s;
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
