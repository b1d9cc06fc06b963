// Vector-length-agnostic SVE kernels (ACLE) over a counter range
// (sv/kernels.hpp), compiled only when
// the toolchain targets SVE (__ARM_FEATURE_SVE, e.g. -march=armv8.2-a+sve
// or an A64FX toolchain).
//
// The kernels are written against the scalable types, so one binary runs
// at any hardware vector length (128..2048 bits; 512 on A64FX). Every
// target qubit is handled by the same predicated loop: a pair run of
// length `run` complexes is 2*run adjacent scalars for both the lo and hi
// streams, and whilelt masks the tail — short low-target runs simply
// execute with partially-filled vectors, which is exactly the efficiency
// cliff the paper measures. Complex multiply uses FCMLA (rotate 0 + 90),
// which operates natively on interleaved re/im pairs; predicates stay
// complex-aligned because SVE vector lengths are multiples of 128 bits.

#include "sv/simd/backend_tables.hpp"

#if defined(__aarch64__) && defined(__ARM_FEATURE_SVE)
#define SVSIM_HAVE_SVE_KERNELS 1
#include <arm_sve.h>
#endif

namespace svsim::sv::simd::detail {

#if defined(SVSIM_HAVE_SVE_KERNELS)

namespace {

using ::svsim::sv::detail::for_pair_runs;

constexpr std::size_t idx(KernelClass c) { return static_cast<std::size_t>(c); }

// acc + a*b for interleaved complex lanes: FCMLA rot 0 accumulates
// re*re/re*im, rot 90 accumulates -im*im/im*re.
inline svfloat64_t cmla_d(svbool_t m, svfloat64_t acc, svfloat64_t a,
                          svfloat64_t b) {
  return svcmla_f64_x(m, svcmla_f64_x(m, acc, a, b, 0), a, b, 90);
}

inline svfloat32_t cmla_s(svbool_t m, svfloat32_t acc, svfloat32_t a,
                          svfloat32_t b) {
  return svcmla_f32_x(m, svcmla_f32_x(m, acc, a, b, 0), a, b, 90);
}

template <typename T>
void sve_hadamard(std::complex<T>* psi, const PreparedGate<T>& pg,
                  std::uint64_t begin, std::uint64_t end);

template <>
void sve_hadamard<double>(std::complex<double>* psi,
                          const PreparedGate<double>& pg,
                          std::uint64_t begin, std::uint64_t end) {
  const svfloat64_t vs = svdup_f64(0.70710678118654752440);
  double* p = reinterpret_cast<double*>(psi);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    double* lo = p + 2 * base;
    double* hi = lo + 2 * stride;
    const std::int64_t len = static_cast<std::int64_t>(2 * run);
    for (std::int64_t j = 0; j < len;
         j += static_cast<std::int64_t>(svcntd())) {
      const svbool_t m = svwhilelt_b64(j, len);
      const svfloat64_t a0 = svld1_f64(m, lo + j);
      const svfloat64_t a1 = svld1_f64(m, hi + j);
      svst1_f64(m, lo + j, svmul_f64_x(m, svadd_f64_x(m, a0, a1), vs));
      svst1_f64(m, hi + j, svmul_f64_x(m, svsub_f64_x(m, a0, a1), vs));
    }
  });
}

template <>
void sve_hadamard<float>(std::complex<float>* psi,
                         const PreparedGate<float>& pg,
                         std::uint64_t begin, std::uint64_t end) {
  const svfloat32_t vs =
      svdup_f32(static_cast<float>(0.70710678118654752440));
  float* p = reinterpret_cast<float*>(psi);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    float* lo = p + 2 * base;
    float* hi = lo + 2 * stride;
    const std::int32_t len = static_cast<std::int32_t>(2 * run);
    for (std::int32_t j = 0; j < len;
         j += static_cast<std::int32_t>(svcntw())) {
      const svbool_t m = svwhilelt_b32(j, len);
      const svfloat32_t a0 = svld1_f32(m, lo + j);
      const svfloat32_t a1 = svld1_f32(m, hi + j);
      svst1_f32(m, lo + j, svmul_f32_x(m, svadd_f32_x(m, a0, a1), vs));
      svst1_f32(m, hi + j, svmul_f32_x(m, svsub_f32_x(m, a0, a1), vs));
    }
  });
}

template <typename T>
void sve_diag1(std::complex<T>* psi, const PreparedGate<T>& pg,
               std::uint64_t begin, std::uint64_t end);

template <>
void sve_diag1<double>(std::complex<double>* psi,
                       const PreparedGate<double>& pg,
                       std::uint64_t begin, std::uint64_t end) {
  const svfloat64_t f0 = svdupq_n_f64(pg.coeff[0].real(), pg.coeff[0].imag());
  const svfloat64_t f1 = svdupq_n_f64(pg.coeff[1].real(), pg.coeff[1].imag());
  const bool skip_lower = (pg.coeff[0] == std::complex<double>{1.0, 0.0});
  double* p = reinterpret_cast<double*>(psi);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    double* lo = p + 2 * base;
    double* hi = lo + 2 * stride;
    const std::int64_t len = static_cast<std::int64_t>(2 * run);
    for (std::int64_t j = 0; j < len;
         j += static_cast<std::int64_t>(svcntd())) {
      const svbool_t m = svwhilelt_b64(j, len);
      const svfloat64_t zero = svdup_f64(0.0);
      if (!skip_lower)
        svst1_f64(m, lo + j, cmla_d(m, zero, svld1_f64(m, lo + j), f0));
      svst1_f64(m, hi + j, cmla_d(m, zero, svld1_f64(m, hi + j), f1));
    }
  });
}

template <>
void sve_diag1<float>(std::complex<float>* psi,
                      const PreparedGate<float>& pg,
                      std::uint64_t begin, std::uint64_t end) {
  const svfloat32_t f0 = svdupq_n_f32(pg.coeff[0].real(), pg.coeff[0].imag(),
                                      pg.coeff[0].real(), pg.coeff[0].imag());
  const svfloat32_t f1 = svdupq_n_f32(pg.coeff[1].real(), pg.coeff[1].imag(),
                                      pg.coeff[1].real(), pg.coeff[1].imag());
  const bool skip_lower = (pg.coeff[0] == std::complex<float>{1.0f, 0.0f});
  float* p = reinterpret_cast<float*>(psi);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    float* lo = p + 2 * base;
    float* hi = lo + 2 * stride;
    const std::int32_t len = static_cast<std::int32_t>(2 * run);
    for (std::int32_t j = 0; j < len;
         j += static_cast<std::int32_t>(svcntw())) {
      const svbool_t m = svwhilelt_b32(j, len);
      const svfloat32_t zero = svdup_f32(0.0f);
      if (!skip_lower)
        svst1_f32(m, lo + j, cmla_s(m, zero, svld1_f32(m, lo + j), f0));
      svst1_f32(m, hi + j, cmla_s(m, zero, svld1_f32(m, hi + j), f1));
    }
  });
}

template <typename T>
void sve_matrix1(std::complex<T>* psi, const PreparedGate<T>& pg,
                 std::uint64_t begin, std::uint64_t end);

template <>
void sve_matrix1<double>(std::complex<double>* psi,
                         const PreparedGate<double>& pg,
                         std::uint64_t begin, std::uint64_t end) {
  const svfloat64_t m00 = svdupq_n_f64(pg.coeff[0].real(), pg.coeff[0].imag());
  const svfloat64_t m01 = svdupq_n_f64(pg.coeff[1].real(), pg.coeff[1].imag());
  const svfloat64_t m10 = svdupq_n_f64(pg.coeff[2].real(), pg.coeff[2].imag());
  const svfloat64_t m11 = svdupq_n_f64(pg.coeff[3].real(), pg.coeff[3].imag());
  double* p = reinterpret_cast<double*>(psi);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    double* lo = p + 2 * base;
    double* hi = lo + 2 * stride;
    const std::int64_t len = static_cast<std::int64_t>(2 * run);
    for (std::int64_t j = 0; j < len;
         j += static_cast<std::int64_t>(svcntd())) {
      const svbool_t m = svwhilelt_b64(j, len);
      const svfloat64_t zero = svdup_f64(0.0);
      const svfloat64_t a0 = svld1_f64(m, lo + j);
      const svfloat64_t a1 = svld1_f64(m, hi + j);
      svst1_f64(m, lo + j, cmla_d(m, cmla_d(m, zero, a0, m00), a1, m01));
      svst1_f64(m, hi + j, cmla_d(m, cmla_d(m, zero, a0, m10), a1, m11));
    }
  });
}

template <>
void sve_matrix1<float>(std::complex<float>* psi,
                        const PreparedGate<float>& pg,
                        std::uint64_t begin, std::uint64_t end) {
  const svfloat32_t m00 = svdupq_n_f32(pg.coeff[0].real(), pg.coeff[0].imag(),
                                       pg.coeff[0].real(), pg.coeff[0].imag());
  const svfloat32_t m01 = svdupq_n_f32(pg.coeff[1].real(), pg.coeff[1].imag(),
                                       pg.coeff[1].real(), pg.coeff[1].imag());
  const svfloat32_t m10 = svdupq_n_f32(pg.coeff[2].real(), pg.coeff[2].imag(),
                                       pg.coeff[2].real(), pg.coeff[2].imag());
  const svfloat32_t m11 = svdupq_n_f32(pg.coeff[3].real(), pg.coeff[3].imag(),
                                       pg.coeff[3].real(), pg.coeff[3].imag());
  float* p = reinterpret_cast<float*>(psi);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    float* lo = p + 2 * base;
    float* hi = lo + 2 * stride;
    const std::int32_t len = static_cast<std::int32_t>(2 * run);
    for (std::int32_t j = 0; j < len;
         j += static_cast<std::int32_t>(svcntw())) {
      const svbool_t m = svwhilelt_b32(j, len);
      const svfloat32_t zero = svdup_f32(0.0f);
      const svfloat32_t a0 = svld1_f32(m, lo + j);
      const svfloat32_t a1 = svld1_f32(m, hi + j);
      svst1_f32(m, lo + j, cmla_s(m, cmla_s(m, zero, a0, m00), a1, m01));
      svst1_f32(m, hi + j, cmla_s(m, cmla_s(m, zero, a0, m10), a1, m11));
    }
  });
}

}  // namespace

const KernelOverrides& sve_overrides() {
  static const KernelOverrides ov = [] {
    KernelOverrides o;
    o.compiled = true;
    o.vector_bits = static_cast<unsigned>(svcntb() * 8);  // runtime VL
    o.f64[idx(KernelClass::Hadamard)] = &sve_hadamard<double>;
    o.f64[idx(KernelClass::Diag1)] = &sve_diag1<double>;
    o.f64[idx(KernelClass::Matrix1)] = &sve_matrix1<double>;
    o.f32[idx(KernelClass::Hadamard)] = &sve_hadamard<float>;
    o.f32[idx(KernelClass::Diag1)] = &sve_diag1<float>;
    o.f32[idx(KernelClass::Matrix1)] = &sve_matrix1<float>;
    return o;
  }();
  return ov;
}

#else  // !SVSIM_HAVE_SVE_KERNELS

const KernelOverrides& sve_overrides() {
  static const KernelOverrides ov{};
  return ov;
}

#endif

}  // namespace svsim::sv::simd::detail
