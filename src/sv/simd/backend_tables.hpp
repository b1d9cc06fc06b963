#pragma once

// Internal contract between the backend kernel translation units and the
// registry (sv/simd/registry.cpp). Each backend TU returns a sparse
// override set: null entries fall back to the scalar reference table.
// When the ISA is not compiled in (wrong architecture or missing
// compiler flags), the TU still links but reports compiled = false.

#include <array>

#include "sv/kernels.hpp"

namespace svsim::sv::simd::detail {

struct KernelOverrides {
  bool compiled = false;
  /// Hardware vector width of the compiled kernels; 0 when !compiled.
  /// For SVE this is probed at runtime (vector-length agnostic code).
  unsigned vector_bits = 0;
  std::array<KernelFn<float>, kNumKernelClasses> f32{};
  std::array<KernelFn<double>, kNumKernelClasses> f64{};
};

/// Walks the pair runs of counters [begin, end) on target t: vec(lo, hi)
/// on every whole vector of `lanes` complexes (scalar pointers into the
/// lower and upper streams), scalar(lo, hi) on each amplitude pair left at
/// the end of a run.
template <typename T, typename Vec, typename Scalar>
inline void for_run_vectors(std::complex<T>* psi, unsigned t,
                            std::uint64_t begin, std::uint64_t end,
                            std::uint64_t lanes, Vec&& vec, Scalar&& scalar) {
  const std::uint64_t stride = pow2(t);
  ::svsim::sv::detail::for_pair_runs(
      begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
        std::complex<T>* lo = psi + base;
        std::complex<T>* hi = lo + stride;
        std::uint64_t j = 0;
        for (; j + lanes <= run; j += lanes)
          vec(reinterpret_cast<T*>(lo + j), reinterpret_cast<T*>(hi + j));
        for (; j < run; ++j) scalar(lo[j], hi[j]);
      });
}

const KernelOverrides& avx2_overrides();
const KernelOverrides& neon_overrides();
const KernelOverrides& sve_overrides();

}  // namespace svsim::sv::simd::detail
