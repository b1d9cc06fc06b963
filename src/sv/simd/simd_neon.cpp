// AArch64 AdvSIMD (NEON) kernels over a counter range (sv/kernels.hpp):
// 128-bit vectors, i.e. 2 complex<float> or 1 complex<double> per register.
//
// f32 covers every target: unit-stride runs for target >= 1 and an
// in-register vext partner swap for target 0 (the low-target permute
// case the paper studies). f64 vectors hold exactly one complex, so
// every run is trivially vectorizable at any target. Complex multiply is
// one rev64 (f32) / ext (f64) swizzle plus mul + fma with the
// subtract-sign folded into the imaginary constant.

#include "sv/simd/backend_tables.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)
#define SVSIM_HAVE_NEON_KERNELS 1
#include <arm_neon.h>
#endif

namespace svsim::sv::simd::detail {

#if defined(SVSIM_HAVE_NEON_KERNELS)

namespace {

using ::svsim::sv::detail::for_pair_runs;

constexpr std::size_t idx(KernelClass c) { return static_cast<std::size_t>(c); }

// ---- float: 2 complexes per float32x4_t ----------------------------------

struct CconstS {
  float32x4_t re, im_s;  // im_s carries the -,+ fmaddsub signs
};

inline CconstS cdup_s(std::complex<float> x) {
  const float re[4] = {x.real(), x.real(), x.real(), x.real()};
  const float im[4] = {-x.imag(), x.imag(), -x.imag(), x.imag()};
  return {vld1q_f32(re), vld1q_f32(im)};
}

inline CconstS cpair_s(std::complex<float> x, std::complex<float> y) {
  const float re[4] = {x.real(), x.real(), y.real(), y.real()};
  const float im[4] = {-x.imag(), x.imag(), -y.imag(), y.imag()};
  return {vld1q_f32(re), vld1q_f32(im)};
}

inline float32x4_t cmul_s(float32x4_t a, const CconstS& b) {
  return vfmaq_f32(vmulq_f32(a, b.re), vrev64q_f32(a), b.im_s);
}

void hadamard_s(std::complex<float>* psi,
                const PreparedGate<float>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const float32x4_t vs =
      vdupq_n_f32(static_cast<float>(0.70710678118654752440));
  float* p = reinterpret_cast<float*>(psi);
  const unsigned t = pg.target;
  if (t == 0) {
    for (std::uint64_t c = begin; c < end; ++c) {
      const float32x4_t v = vld1q_f32(p + 4 * c);       // [lo, hi]
      const float32x4_t w = vextq_f32(v, v, 2);         // [hi, lo]
      const float32x4_t plus = vmulq_f32(vaddq_f32(v, w), vs);
      const float32x4_t minus = vmulq_f32(vsubq_f32(w, v), vs);
      // keep lanes 0,1 from plus (lo') and 2,3 from minus (hi')
      vst1q_f32(p + 4 * c,
                vcombine_f32(vget_low_f32(plus), vget_high_f32(minus)));
    }
    return;
  }
  const std::uint64_t stride = pow2(t);
  // Runs hold whole 2-complex vectors: 2^t >= 2 here, and ranges split on
  // kRangeGranule or block boundaries.
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    float* lo = p + 2 * base;
    float* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * run; j += 4) {
      const float32x4_t a0 = vld1q_f32(lo + j);
      const float32x4_t a1 = vld1q_f32(hi + j);
      vst1q_f32(lo + j, vmulq_f32(vaddq_f32(a0, a1), vs));
      vst1q_f32(hi + j, vmulq_f32(vsubq_f32(a0, a1), vs));
    }
  });
}

void diag1_s(std::complex<float>* psi,
             const PreparedGate<float>& pg,
             std::uint64_t begin, std::uint64_t end) {
  const std::complex<float> f0 = pg.coeff[0], f1 = pg.coeff[1];
  float* p = reinterpret_cast<float*>(psi);
  const unsigned t = pg.target;
  if (t == 0) {
    const CconstS c01 = cpair_s(f0, f1);
    for (std::uint64_t c = begin; c < end; ++c)
      vst1q_f32(p + 4 * c, cmul_s(vld1q_f32(p + 4 * c), c01));
    return;
  }
  const bool skip_lower = (f0 == std::complex<float>{1.0f, 0.0f});
  const CconstS c0 = cdup_s(f0), c1 = cdup_s(f1);
  const std::uint64_t stride = pow2(t);
  // Runs hold whole 2-complex vectors: 2^t >= 2 here, and ranges split on
  // kRangeGranule or block boundaries.
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    float* lo = p + 2 * base;
    float* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * run; j += 4) {
      if (!skip_lower) vst1q_f32(lo + j, cmul_s(vld1q_f32(lo + j), c0));
      vst1q_f32(hi + j, cmul_s(vld1q_f32(hi + j), c1));
    }
  });
}

void matrix1_s(std::complex<float>* psi,
               const PreparedGate<float>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const std::complex<float> m00 = pg.coeff[0], m01 = pg.coeff[1];
  const std::complex<float> m10 = pg.coeff[2], m11 = pg.coeff[3];
  float* p = reinterpret_cast<float*>(psi);
  const unsigned t = pg.target;
  if (t == 0) {
    const CconstS c1 = cpair_s(m00, m11);
    const CconstS c2 = cpair_s(m01, m10);
    for (std::uint64_t c = begin; c < end; ++c) {
      const float32x4_t v = vld1q_f32(p + 4 * c);
      const float32x4_t w = vextq_f32(v, v, 2);
      vst1q_f32(p + 4 * c, vaddq_f32(cmul_s(v, c1), cmul_s(w, c2)));
    }
    return;
  }
  const CconstS c00 = cdup_s(m00), c01 = cdup_s(m01);
  const CconstS c10 = cdup_s(m10), c11 = cdup_s(m11);
  const std::uint64_t stride = pow2(t);
  // Runs hold whole 2-complex vectors: 2^t >= 2 here, and ranges split on
  // kRangeGranule or block boundaries.
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    float* lo = p + 2 * base;
    float* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * run; j += 4) {
      const float32x4_t a0 = vld1q_f32(lo + j);
      const float32x4_t a1 = vld1q_f32(hi + j);
      vst1q_f32(lo + j, vaddq_f32(cmul_s(a0, c00), cmul_s(a1, c01)));
      vst1q_f32(hi + j, vaddq_f32(cmul_s(a0, c10), cmul_s(a1, c11)));
    }
  });
}

// ---- double: 1 complex per float64x2_t -----------------------------------

struct CconstD {
  float64x2_t re, im_s;
};

inline CconstD cdup_d(std::complex<double> x) {
  const double re[2] = {x.real(), x.real()};
  const double im[2] = {-x.imag(), x.imag()};
  return {vld1q_f64(re), vld1q_f64(im)};
}

inline float64x2_t cmul_d(float64x2_t a, const CconstD& b) {
  return vfmaq_f64(vmulq_f64(a, b.re), vextq_f64(a, a, 1), b.im_s);
}

void hadamard_d(std::complex<double>* psi,
                const PreparedGate<double>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const float64x2_t vs = vdupq_n_f64(0.70710678118654752440);
  double* p = reinterpret_cast<double*>(psi);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(begin, end, t,
                [&](std::uint64_t base, std::uint64_t run) {
                  double* lo = p + 2 * base;
                  double* hi = lo + 2 * stride;
                  for (std::uint64_t j = 0; j < 2 * run; j += 2) {
                    const float64x2_t a0 = vld1q_f64(lo + j);
                    const float64x2_t a1 = vld1q_f64(hi + j);
                    vst1q_f64(lo + j, vmulq_f64(vaddq_f64(a0, a1), vs));
                    vst1q_f64(hi + j, vmulq_f64(vsubq_f64(a0, a1), vs));
                  }
                });
}

void diag1_d(std::complex<double>* psi,
             const PreparedGate<double>& pg,
             std::uint64_t begin, std::uint64_t end) {
  const bool skip_lower =
      (pg.coeff[0] == std::complex<double>{1.0, 0.0});
  const CconstD c0 = cdup_d(pg.coeff[0]), c1 = cdup_d(pg.coeff[1]);
  double* p = reinterpret_cast<double*>(psi);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(begin, end, t,
                [&](std::uint64_t base, std::uint64_t run) {
                  double* lo = p + 2 * base;
                  double* hi = lo + 2 * stride;
                  for (std::uint64_t j = 0; j < 2 * run; j += 2) {
                    if (!skip_lower)
                      vst1q_f64(lo + j, cmul_d(vld1q_f64(lo + j), c0));
                    vst1q_f64(hi + j, cmul_d(vld1q_f64(hi + j), c1));
                  }
                });
}

void matrix1_d(std::complex<double>* psi,
               const PreparedGate<double>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const CconstD c00 = cdup_d(pg.coeff[0]), c01 = cdup_d(pg.coeff[1]);
  const CconstD c10 = cdup_d(pg.coeff[2]), c11 = cdup_d(pg.coeff[3]);
  double* p = reinterpret_cast<double*>(psi);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(begin, end, t,
                [&](std::uint64_t base, std::uint64_t run) {
                  double* lo = p + 2 * base;
                  double* hi = lo + 2 * stride;
                  for (std::uint64_t j = 0; j < 2 * run; j += 2) {
                    const float64x2_t a0 = vld1q_f64(lo + j);
                    const float64x2_t a1 = vld1q_f64(hi + j);
                    vst1q_f64(lo + j,
                              vaddq_f64(cmul_d(a0, c00), cmul_d(a1, c01)));
                    vst1q_f64(hi + j,
                              vaddq_f64(cmul_d(a0, c10), cmul_d(a1, c11)));
                  }
                });
}

}  // namespace

const KernelOverrides& neon_overrides() {
  static const KernelOverrides ov = [] {
    KernelOverrides o;
    o.compiled = true;
    o.vector_bits = 128;
    o.f32[idx(KernelClass::Hadamard)] = &hadamard_s;
    o.f32[idx(KernelClass::Diag1)] = &diag1_s;
    o.f32[idx(KernelClass::Matrix1)] = &matrix1_s;
    o.f64[idx(KernelClass::Hadamard)] = &hadamard_d;
    o.f64[idx(KernelClass::Diag1)] = &diag1_d;
    o.f64[idx(KernelClass::Matrix1)] = &matrix1_d;
    return o;
  }();
  return ov;
}

#else  // !SVSIM_HAVE_NEON_KERNELS

const KernelOverrides& neon_overrides() {
  static const KernelOverrides ov{};
  return ov;
}

#endif

}  // namespace svsim::sv::simd::detail
