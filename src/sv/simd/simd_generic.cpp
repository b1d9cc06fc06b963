// Portable "generic vector" backend: GCC/Clang vector extensions over
// 256-bit logical vectors (lowered to whatever the target provides).
//
// This tier vectorizes the unit-stride runs of Hadamard, Diag1, and
// Matrix1 (target high enough that a run fills whole vectors) and falls
// back to the scalar reference for low targets — the in-register permute
// games are left to the ISA-specific backends. Complex multiply folds the
// fmaddsub sign into a premultiplied imaginary constant, so the inner
// loop is one shuffle, two multiplies, and one add per vector.

#include "sv/simd/backend_tables.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SVSIM_HAVE_GENERIC_KERNELS 1
#endif

namespace svsim::sv::simd::detail {

#if defined(SVSIM_HAVE_GENERIC_KERNELS)

namespace {

namespace kern = ::svsim::sv::detail::kern;

constexpr std::size_t idx(KernelClass c) { return static_cast<std::size_t>(c); }

using VD = double __attribute__((vector_size(32)));  // 2 complex<double>
using VS = float __attribute__((vector_size(32)));   // 4 complex<float>

template <typename T>
struct VecOf;
template <>
struct VecOf<double> {
  using V = VD;
};
template <>
struct VecOf<float> {
  using V = VS;
};

inline VD swap_ri(VD a) { return __builtin_shufflevector(a, a, 1, 0, 3, 2); }
inline VS swap_ri(VS a) {
  return __builtin_shufflevector(a, a, 1, 0, 3, 2, 5, 4, 7, 6);
}

template <typename V, typename T>
inline V splat(T x) {
  V v{};
  for (unsigned i = 0; i < sizeof(V) / sizeof(T); ++i) v[i] = x;
  return v;
}

// Complex constant split for the one-shuffle multiply: re broadcast plus
// the imaginary part with the subtract-on-even-lanes sign folded in.
template <typename V, typename T>
struct Cconst {
  V re, im_s;
};

template <typename V, typename T>
inline Cconst<V, T> csplit(std::complex<T> c) {
  Cconst<V, T> out;
  for (unsigned i = 0; i < sizeof(V) / sizeof(T); i += 2) {
    out.re[i] = c.real();
    out.re[i + 1] = c.real();
    out.im_s[i] = -c.imag();
    out.im_s[i + 1] = c.imag();
  }
  return out;
}

template <typename V, typename T>
inline V cmul(V a, const Cconst<V, T>& b) {
  return a * b.re + swap_ri(a) * b.im_s;
}

template <typename V, typename T>
inline V vload(const T* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V, typename T>
inline void vstore(T* p, V v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

/// Vector lanes in complexes: runs are walked in whole vectors of this
/// many pairs. Only used when 2^t fills whole vectors; then the whole
/// range, a block range and every kRangeGranule-aligned range split into
/// runs that are multiples of the vector, so for_run_vectors' scalar tail
/// stays empty.
template <typename T>
constexpr std::uint64_t kLanes = sizeof(typename VecOf<T>::V) / sizeof(T) / 2;

/// True when target t's runs fill whole vectors; lower targets take the
/// scalar reference entry.
template <typename T>
bool fills_vectors(unsigned t) {
  return pow2(t) >= kLanes<T>;
}

template <typename T>
void g_hadamard(std::complex<T>* psi, const PreparedGate<T>& pg,
                std::uint64_t begin, std::uint64_t end) {
  using V = typename VecOf<T>::V;
  if (!fills_vectors<T>(pg.target)) {
    kern::k_hadamard<T>(psi, pg, begin, end);
    return;
  }
  const T s = static_cast<T>(0.70710678118654752440);
  const V vs = splat<V>(s);
  for_run_vectors(
      psi, pg.target, begin, end, kLanes<T>,
      [&](T* lo, T* hi) {
        const V a0 = vload<V>(lo);
        const V a1 = vload<V>(hi);
        vstore(lo, (a0 + a1) * vs);
        vstore(hi, (a0 - a1) * vs);
      },
      [&](std::complex<T>& lo, std::complex<T>& hi) {
        const std::complex<T> a0 = lo, a1 = hi;
        lo = (a0 + a1) * s;
        hi = (a0 - a1) * s;
      });
}

template <typename T>
void g_diag1(std::complex<T>* psi, const PreparedGate<T>& pg,
             std::uint64_t begin, std::uint64_t end) {
  using V = typename VecOf<T>::V;
  if (!fills_vectors<T>(pg.target)) {
    kern::k_diag1<T>(psi, pg, begin, end);
    return;
  }
  const bool skip_lower = (pg.coeff[0] == std::complex<T>{T{1}, T{0}});
  const Cconst<V, T> c0 = csplit<V>(pg.coeff[0]);
  const Cconst<V, T> c1 = csplit<V>(pg.coeff[1]);
  for_run_vectors(
      psi, pg.target, begin, end, kLanes<T>,
      [&](T* lo, T* hi) {
        if (!skip_lower) vstore(lo, cmul(vload<V>(lo), c0));
        vstore(hi, cmul(vload<V>(hi), c1));
      },
      [&](std::complex<T>& lo, std::complex<T>& hi) {
        if (!skip_lower) lo *= pg.coeff[0];
        hi *= pg.coeff[1];
      });
}

template <typename T>
void g_matrix1(std::complex<T>* psi, const PreparedGate<T>& pg,
               std::uint64_t begin, std::uint64_t end) {
  using V = typename VecOf<T>::V;
  if (!fills_vectors<T>(pg.target)) {
    kern::k_matrix1<T>(psi, pg, begin, end);
    return;
  }
  const Cconst<V, T> c00 = csplit<V>(pg.coeff[0]);
  const Cconst<V, T> c01 = csplit<V>(pg.coeff[1]);
  const Cconst<V, T> c10 = csplit<V>(pg.coeff[2]);
  const Cconst<V, T> c11 = csplit<V>(pg.coeff[3]);
  const std::complex<T>* m = pg.coeff.data();
  for_run_vectors(
      psi, pg.target, begin, end, kLanes<T>,
      [&](T* lo, T* hi) {
        const V a0 = vload<V>(lo);
        const V a1 = vload<V>(hi);
        vstore(lo, cmul(a0, c00) + cmul(a1, c01));
        vstore(hi, cmul(a0, c10) + cmul(a1, c11));
      },
      [&](std::complex<T>& lo, std::complex<T>& hi) {
        const std::complex<T> a0 = lo, a1 = hi;
        lo = m[0] * a0 + m[1] * a1;
        hi = m[2] * a0 + m[3] * a1;
      });
}

}  // namespace

const KernelOverrides& generic_overrides() {
  static const KernelOverrides ov = [] {
    KernelOverrides o;
    o.compiled = true;
    o.vector_bits = 256;
    o.f64[idx(KernelClass::Hadamard)] = &g_hadamard<double>;
    o.f64[idx(KernelClass::Diag1)] = &g_diag1<double>;
    o.f64[idx(KernelClass::Matrix1)] = &g_matrix1<double>;
    o.f32[idx(KernelClass::Hadamard)] = &g_hadamard<float>;
    o.f32[idx(KernelClass::Diag1)] = &g_diag1<float>;
    o.f32[idx(KernelClass::Matrix1)] = &g_matrix1<float>;
    return o;
  }();
  return ov;
}

#else  // !SVSIM_HAVE_GENERIC_KERNELS

const KernelOverrides& generic_overrides() {
  static const KernelOverrides ov{};
  return ov;
}

#endif

}  // namespace svsim::sv::simd::detail
