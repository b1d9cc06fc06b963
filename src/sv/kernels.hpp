// Gate-application kernels over the raw amplitude array: one table per
// precision, one entry point per KernelClass, every stride.
//
// The kernel contract (documented in docs/ARCHITECTURE.md):
//
//  * Counter space. A prepared gate whose class consumes k counter bits
//    (PreparedGate::counter_bits) enumerates the 2^(n-k) free-index
//    counters of a 2^n state: a 1-target kernel has one counter per
//    amplitude pair, a controlled kernel one per all-controls-one pair, a
//    diagonal kernel one per amplitude. An entry fn(psi, pg, begin, end)
//    applies the gate to counters [begin, end) of the state at psi.
//  * A block is a counter range. An aligned block of 2^b amplitudes with
//    every operand below b is the counter range
//    [blk * 2^(b-k), (blk + 1) * 2^(b-k)), so the blocked engine, the
//    whole-state apply and the batch executor all call the same entries.
//  * Threading: entries are SERIAL. apply_prepared() splits [0, 2^(n-k))
//    across the pool on kRangeGranule-aligned boundaries under the byte
//    grain rule; the blocked engine splits over blocks. An entry never
//    re-enters the pool.
//  * Coefficients: pre-cast once into PreparedGate<T> — an entry does no
//    matrix conversion or allocation (MatrixK uses a fixed stack scratch,
//    hence its k <= kMaxMatrixK limit).
//
// The 1-qubit entries walk (block, contiguous-run) loops rather than a
// per-pair index computation, so the inner loop is a unit-stride sweep the
// compiler (or a SIMD backend) can vectorize; for a target qubit t the run
// length is 2^t, which is exactly the low-target SIMD-efficiency effect the
// A64FX performance model captures.
//
// Index conventions match qc::Gate: for a k-qubit kernel, qubits[0] is the
// least significant bit of the matrix index.
#pragma once

#include <algorithm>
#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/threading.hpp"
#include "qc/gate.hpp"
#include "qc/matrix.hpp"

namespace svsim::sv {

namespace detail {

/// Splits the pair-counter space [begin, end) of a 1-qubit kernel on target
/// `t` into contiguous runs: body(i0, len) must process lower indices
/// [i0, i0+len) with partners at +2^t.
template <typename Body>
inline void for_pair_runs(std::uint64_t begin, std::uint64_t end, unsigned t,
                          Body&& body) {
  const std::uint64_t stride = pow2(t);
  std::uint64_t c = begin;
  while (c < end) {
    const std::uint64_t offset = c & (stride - 1);
    const std::uint64_t block = c >> t;
    const std::uint64_t base = (block << (t + 1)) | offset;
    const std::uint64_t run = std::min(end - c, stride - offset);
    body(base, run);
    c += run;
  }
}

/// Bytes of `k` amplitudes: what one loop item touches, for the pool's
/// grain rule.
template <typename T>
constexpr std::uint64_t amp_bytes(std::uint64_t k) {
  return k * sizeof(std::complex<T>);
}

/// Converts a qc::Matrix entry to the kernel precision.
template <typename T>
inline std::complex<T> cast_c(const qc::cplx& v) {
  return {static_cast<T>(v.real()), static_cast<T>(v.imag())};
}

}  // namespace detail

/// Whole-state 2x2 that computes each pair index with insert_zero_bit
/// instead of run blocking. Same result as the Matrix1 entry, but the inner
/// loop has a data-dependent index chain the vectorizer cannot see through —
/// kept as the ablation baseline for the run-blocked design
/// (bench_abl_design quantifies the difference).
template <typename T>
void apply_matrix1_pairwise(std::complex<T>* psi, unsigned n, unsigned t,
                            const qc::Matrix& u, ThreadPool& pool) {
  SVSIM_ASSERT(u.dim() == 2 && t < n);
  const std::complex<T> m00 = detail::cast_c<T>(u(0, 0));
  const std::complex<T> m01 = detail::cast_c<T>(u(0, 1));
  const std::complex<T> m10 = detail::cast_c<T>(u(1, 0));
  const std::complex<T> m11 = detail::cast_c<T>(u(1, 1));
  const std::uint64_t tbit = pow2(t);
  pool.parallel_for(
      pow2(n - 1), detail::amp_bytes<T>(2),
      [=](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t i0 = insert_zero_bit(c, t);
          const std::uint64_t i1 = i0 | tbit;
          const std::complex<T> a0 = psi[i0];
          const std::complex<T> a1 = psi[i1];
          psi[i0] = m00 * a0 + m01 * a1;
          psi[i1] = m10 * a0 + m11 * a1;
        }
      });
}

// ---- kernel classes and prepared gates ---------------------------------------

/// Kernel specialization classes the dispatcher distinguishes. Order is the
/// dispatch-table index; keep kernel_class_name and kernel_table in sync.
enum class KernelClass : std::uint8_t {
  Nop = 0,      ///< I / BARRIER
  PermX,        ///< X: pure pair swap, no arithmetic
  PermY,        ///< Y: pair swap with ±i phases
  PermSwap,     ///< SWAP: (01)<->(10) amplitude exchange
  Mcx,          ///< CX/CCX/MCX: controlled pair swap
  Hadamard,     ///< H: add/sub + scale
  Diag1,        ///< Z/S/T/P/RZ: diag(d0, d1)
  McPhase,      ///< CZ/CP/CCZ/MCP: one phased amplitude subset
  DiagK,        ///< DIAG/RZZ/CRZ: 2^k-entry diagonal
  Matrix1,      ///< general 2x2
  CtrlMatrix1,  ///< CY/CH/CRX/CRY: controlled 2x2
  Matrix2,      ///< general (fused) 4x4
  MatrixK,      ///< dense 2^k x 2^k (fusion output, CSWAP)
  Unsupported,  ///< MEASURE / RESET: not a unitary kernel
};

inline constexpr std::size_t kNumKernelClasses = 14;

const char* kernel_class_name(KernelClass c);

/// Maps a gate to its kernel class. Total: every GateKind classifies
/// (MEASURE/RESET as Unsupported). This is the single source of truth for
/// which specialized kernel serves a gate.
KernelClass classify_gate(const qc::Gate& g);

/// Kernel class of a dense UNITARY payload on k qubits.
KernelClass unitary_class(unsigned k);

/// The work one application of a gate's kernel does on a whole state: the
/// one record the kernel's counter space (prepare_gate), fusion's price
/// (kernel_price) and the performance model (perf::gate_cost) read.
struct KernelWork {
  KernelClass cls = KernelClass::Nop;
  /// Operand bits the counter space skips: a 2^n state has 2^(n -
  /// counter_bits) counters (0 for the per-amplitude diagonal class).
  unsigned counter_bits = 0;
  /// Amplitudes one counter reads and writes (the pool's grain rule).
  unsigned counter_amps = 0;
  /// Share of the counted amplitudes the kernel does not skip: a DiagK
  /// skips its entries that are exactly one, a Diag1 with d0 == 1 the |0>
  /// half of each pair; 1 for every other class.
  double active = 1.0;
  /// Complex multiplies per touched amplitude: the row length counter_amps
  /// of the dense classes, one for the diagonal and phase classes and
  /// Hadamard, none for the permutations.
  unsigned multiplies = 0;
  /// State bits that select the touched amplitudes: each holds one value
  /// within each of `patterns` operand patterns (the controls of Mcx and
  /// CtrlMatrix1, every McPhase operand, the DiagK/Diag1 operand bits that
  /// are constant over the entries not skipped, both PermSwap operands with
  /// its 01 and 10 as two patterns). 0 patterns: nothing is touched.
  std::uint64_t select = 0;
  unsigned patterns = 1;
  /// Qubit whose stride 2^q is the kernel's contiguous run, which sets its
  /// SIMD efficiency: the target of a 1-target class, controlled or not;
  /// the lowest operand of the others.
  unsigned run_qubit = 0;

  /// Touched amplitudes per state amplitude.
  double touched_share() const {
    return counter_amps / static_cast<double>(pow2(counter_bits)) * active;
  }
};

/// The work record of `g`, built from the gate alone without allocating
/// (a DIAG reads its payload; RZZ, CRZ and RZ compute their entries as
/// Gate::matrix() does). MEASURE/RESET give the Unsupported class and no
/// work.
KernelWork kernel_work(const qc::Gate& g);

/// The work record of a dense k-qubit unitary (unitary_class(k), every
/// amplitude, 2^k multiplies each). It does not depend on the matrix.
KernelWork dense_work(unsigned k);

/// Work price of one application over a whole state, per state amplitude:
/// the touched share times the complex multiplies per touched amplitude
/// plus one for streaming it; Nop is free. Fusion keeps a merge only when
/// it does not raise the summed price (sv/fusion.hpp).
double kernel_price(const KernelWork& w);

/// A gate resolved for application: kernel class, its counter space, and
/// every coefficient pre-cast to the state precision, so applying it to a
/// counter range touches only the range's amplitudes.
template <typename T>
struct PreparedGate {
  KernelClass cls = KernelClass::Nop;
  std::vector<unsigned> qubits;   ///< operands, gate order (qubits[0] = LSB)
  std::vector<unsigned> sorted;   ///< ascending operand bit positions
  unsigned target = 0;            ///< target qubit (1-target kernels)
  unsigned counter_bits = 0;      ///< as KernelWork::counter_bits
  unsigned counter_amps = 0;      ///< as KernelWork::counter_amps
  std::uint64_t cmask = 0;        ///< OR of control bits
  std::uint64_t mask = 0;         ///< OR of all operand bits (McPhase)
  /// Class-dependent payload: Diag1 {d0,d1}; McPhase {phase};
  /// Matrix1/CtrlMatrix1 4; Matrix2 16; DiagK 2^k; MatrixK 4^k.
  std::vector<std::complex<T>> coeff;
  std::vector<std::uint64_t> offs;  ///< MatrixK sub-index scatter offsets
};

/// MatrixK width limit: the entry's fixed stack scratch of 2^10 amplitudes.
inline constexpr unsigned kMaxMatrixK = 10;

/// Range split granule of apply_prepared, in counters. The widest vector
/// entry (AVX2 f32: 4 complexes, 2 pairs per vector at t <= 1; 4 pairs at
/// t >= 2; Matrix2 4 quads) covers at most 4 counters, so 8-aligned ranges
/// never split a vector; ranges shorter than a vector take each backend's
/// scalar tail.
inline constexpr std::uint64_t kRangeGranule = 8;

namespace detail::kern {

template <typename T>
void k_nop(std::complex<T>*, const PreparedGate<T>&, std::uint64_t,
           std::uint64_t) {}

template <typename T>
void k_perm_x(std::complex<T>* psi, const PreparedGate<T>& pg,
              std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t stride = pow2(pg.target);
  for_pair_runs(begin, end, pg.target,
                [&](std::uint64_t base, std::uint64_t run) {
                  std::complex<T>* lo = psi + base;
                  std::complex<T>* hi = psi + base + stride;
                  for (std::uint64_t j = 0; j < run; ++j)
                    std::swap(lo[j], hi[j]);
                });
}

template <typename T>
void k_perm_y(std::complex<T>* psi, const PreparedGate<T>& pg,
              std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t stride = pow2(pg.target);
  for_pair_runs(begin, end, pg.target,
                [&](std::uint64_t base, std::uint64_t run) {
                  std::complex<T>* lo = psi + base;
                  std::complex<T>* hi = psi + base + stride;
                  for (std::uint64_t j = 0; j < run; ++j) {
                    const std::complex<T> a0 = lo[j];
                    const std::complex<T> a1 = hi[j];
                    lo[j] = std::complex<T>{a1.imag(), -a1.real()};  // -i a1
                    hi[j] = std::complex<T>{-a0.imag(), a0.real()};  //  i a0
                  }
                });
}

template <typename T>
void k_hadamard(std::complex<T>* psi, const PreparedGate<T>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const T inv_sqrt2 = static_cast<T>(0.70710678118654752440);
  const std::uint64_t stride = pow2(pg.target);
  for_pair_runs(begin, end, pg.target,
                [&](std::uint64_t base, std::uint64_t run) {
                  std::complex<T>* lo = psi + base;
                  std::complex<T>* hi = psi + base + stride;
                  for (std::uint64_t j = 0; j < run; ++j) {
                    const std::complex<T> a0 = lo[j];
                    const std::complex<T> a1 = hi[j];
                    lo[j] = (a0 + a1) * inv_sqrt2;
                    hi[j] = (a0 - a1) * inv_sqrt2;
                  }
                });
}

/// diag(d0, d1). When d0 == 1 (Z, S, T, P) only the |1> half of each pair
/// is touched — half the memory traffic, which the performance model
/// accounts for.
template <typename T>
void k_diag1(std::complex<T>* psi, const PreparedGate<T>& pg,
             std::uint64_t begin, std::uint64_t end) {
  const std::complex<T> f0 = pg.coeff[0];
  const std::complex<T> f1 = pg.coeff[1];
  const bool skip_lower = (f0 == std::complex<T>{T{1}, T{0}});
  const std::uint64_t stride = pow2(pg.target);
  for_pair_runs(begin, end, pg.target,
                [&](std::uint64_t base, std::uint64_t run) {
                  std::complex<T>* lo = psi + base;
                  std::complex<T>* hi = psi + base + stride;
                  if (skip_lower) {
                    for (std::uint64_t j = 0; j < run; ++j) hi[j] *= f1;
                  } else {
                    for (std::uint64_t j = 0; j < run; ++j) {
                      lo[j] *= f0;
                      hi[j] *= f1;
                    }
                  }
                });
}

template <typename T>
void k_matrix1(std::complex<T>* psi, const PreparedGate<T>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const std::complex<T> m00 = pg.coeff[0], m01 = pg.coeff[1];
  const std::complex<T> m10 = pg.coeff[2], m11 = pg.coeff[3];
  const std::uint64_t stride = pow2(pg.target);
  for_pair_runs(begin, end, pg.target,
                [&](std::uint64_t base, std::uint64_t run) {
                  std::complex<T>* lo = psi + base;
                  std::complex<T>* hi = psi + base + stride;
                  for (std::uint64_t j = 0; j < run; ++j) {
                    const std::complex<T> a0 = lo[j];
                    const std::complex<T> a1 = hi[j];
                    lo[j] = m00 * a0 + m01 * a1;
                    hi[j] = m10 * a0 + m11 * a1;
                  }
                });
}

template <typename T>
void k_mcx(std::complex<T>* psi, const PreparedGate<T>& pg,
           std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t tbit = pow2(pg.target);
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t i0 = insert_zero_bits(c, pg.sorted) | pg.cmask;
    std::swap(psi[i0], psi[i0 | tbit]);
  }
}

template <typename T>
void k_ctrl_matrix1(std::complex<T>* psi, const PreparedGate<T>& pg,
                    std::uint64_t begin, std::uint64_t end) {
  const std::complex<T> m00 = pg.coeff[0], m01 = pg.coeff[1];
  const std::complex<T> m10 = pg.coeff[2], m11 = pg.coeff[3];
  const std::uint64_t tbit = pow2(pg.target);
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t i0 = insert_zero_bits(c, pg.sorted) | pg.cmask;
    const std::uint64_t i1 = i0 | tbit;
    const std::complex<T> a0 = psi[i0];
    const std::complex<T> a1 = psi[i1];
    psi[i0] = m00 * a0 + m01 * a1;
    psi[i1] = m10 * a0 + m11 * a1;
  }
}

/// Multiplies the one amplitude subset where every operand (controls AND
/// target — MCP is symmetric) is 1 by the phase.
template <typename T>
void k_mc_phase(std::complex<T>* psi, const PreparedGate<T>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const std::complex<T> f = pg.coeff[0];
  for (std::uint64_t c = begin; c < end; ++c)
    psi[insert_zero_bits(c, pg.sorted) | pg.mask] *= f;
}

template <typename T>
void k_perm_swap(std::complex<T>* psi, const PreparedGate<T>& pg,
                 std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t base = insert_zero_bits(c, pg.sorted);
    std::swap(psi[base | b0], psi[base | b1]);
  }
}

template <typename T>
void k_matrix2(std::complex<T>* psi, const PreparedGate<T>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* m = pg.coeff.data();
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t base = insert_zero_bits(c, pg.sorted);
    const std::uint64_t i[4] = {base, base | b0, base | b1, base | b0 | b1};
    const std::complex<T> a0 = psi[i[0]], a1 = psi[i[1]], a2 = psi[i[2]],
                          a3 = psi[i[3]];
    psi[i[0]] = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
    psi[i[1]] = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
    psi[i[2]] = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
    psi[i[3]] = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
  }
}

template <typename T>
void k_diag_k(std::complex<T>* psi, const PreparedGate<T>& pg,
              std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t i = begin; i < end; ++i)
    psi[i] *= pg.coeff[gather_bits(i, pg.qubits)];
}

/// Dense 2^k x 2^k unitary on qubits (qubits[0] = matrix LSB); the fused-
/// gate execution path.
template <typename T>
void k_matrix_k(std::complex<T>* psi, const PreparedGate<T>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t sub = pow2(static_cast<unsigned>(pg.qubits.size()));
  std::array<std::complex<T>, pow2(kMaxMatrixK)> in;
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t base = insert_zero_bits(c, pg.sorted);
    for (std::uint64_t s = 0; s < sub; ++s) in[s] = psi[base | pg.offs[s]];
    for (std::uint64_t r = 0; r < sub; ++r) {
      std::complex<T> acc{};
      const std::complex<T>* row = pg.coeff.data() + r * sub;
      for (std::uint64_t s = 0; s < sub; ++s) acc += row[s] * in[s];
      psi[base | pg.offs[r]] = acc;
    }
  }
}

template <typename T>
void k_unsupported(std::complex<T>*, const PreparedGate<T>&, std::uint64_t,
                   std::uint64_t) {
  throw Error("kernel: MEASURE/RESET are not unitary kernels");
}

}  // namespace detail::kern

/// Serial kernel signature: apply the gate to counters [begin, end) of the
/// state at psi.
template <typename T>
using KernelFn = void (*)(std::complex<T>* psi, const PreparedGate<T>& pg,
                          std::uint64_t begin, std::uint64_t end);

/// The portable scalar reference table, indexed by KernelClass. SIMD
/// backends (sv/simd) derive their tables from this one, substituting
/// hand-vectorized entries; it also serves as the equivalence oracle in
/// tests.
template <typename T>
inline const std::array<KernelFn<T>, kNumKernelClasses>& kernel_table() {
  namespace k = detail::kern;
  static const std::array<KernelFn<T>, kNumKernelClasses> table = {
      &k::k_nop<T>,        &k::k_perm_x<T>,       &k::k_perm_y<T>,
      &k::k_perm_swap<T>,  &k::k_mcx<T>,          &k::k_hadamard<T>,
      &k::k_diag1<T>,      &k::k_mc_phase<T>,     &k::k_diag_k<T>,
      &k::k_matrix1<T>,    &k::k_ctrl_matrix1<T>, &k::k_matrix2<T>,
      &k::k_matrix_k<T>,   &k::k_unsupported<T>,
  };
  return table;
}

/// The table of the active SIMD backend (scalar entries where the backend
/// has no hand-vectorized kernel). Defined in sv/simd/registry.cpp; the
/// first call triggers runtime CPU detection / the SVSIM_SIMD override
/// (see sv/simd/simd.hpp).
template <typename T>
const std::array<KernelFn<T>, kNumKernelClasses>& active_kernel_table();

template <>
const std::array<KernelFn<float>, kNumKernelClasses>&
active_kernel_table<float>();
template <>
const std::array<KernelFn<double>, kNumKernelClasses>&
active_kernel_table<double>();

/// Resolves `g` for application: classifies it, records its counter space
/// and pre-casts every coefficient to precision T. Throws for MEASURE/RESET
/// and for dense payloads wider than kMaxMatrixK.
template <typename T>
PreparedGate<T> prepare_gate(const qc::Gate& g);

extern template PreparedGate<float> prepare_gate<float>(const qc::Gate&);
extern template PreparedGate<double> prepare_gate<double>(const qc::Gate&);

/// Highest operand qubit + 1 (0 for operand-free gates): the smallest state
/// or block exponent the prepared gate fits.
template <typename T>
unsigned min_qubits(const PreparedGate<T>& pg) {
  unsigned m = 0;
  for (unsigned q : pg.qubits) m = std::max(m, q + 1);
  return m;
}

/// Applies a prepared gate serially to counters [begin, end) through the
/// active backend's table.
template <typename T>
inline void apply_range(std::complex<T>* psi, const PreparedGate<T>& pg,
                        std::uint64_t begin, std::uint64_t end) {
  active_kernel_table<T>()[static_cast<std::size_t>(pg.cls)](psi, pg, begin,
                                                             end);
}

/// Applies a prepared gate to a whole 2^n state: the counter range
/// [0, 2^(n - counter_bits)), split across `pool` on kRangeGranule-aligned
/// boundaries when the byte grain rule forks. Every amplitude sees the same
/// arithmetic whatever the pool size.
template <typename T>
void apply_prepared(std::complex<T>* psi, unsigned n,
                    const PreparedGate<T>& pg, ThreadPool& pool) {
  SVSIM_ASSERT(min_qubits(pg) <= n);
  if (pg.cls == KernelClass::Nop) return;
  struct Range {
    KernelFn<T> fn;
    std::complex<T>* psi;
    const PreparedGate<T>* pg;
    std::uint64_t counters;
  };
  const Range r{active_kernel_table<T>()[static_cast<std::size_t>(pg.cls)],
                psi, &pg, pow2(n - pg.counter_bits)};
  // One capture pointer keeps the std::function in its inline buffer.
  const Range* rp = &r;
  pool.parallel_for(
      (r.counters + kRangeGranule - 1) / kRangeGranule,
      detail::amp_bytes<T>(kRangeGranule * pg.counter_amps),
      [rp](unsigned, std::uint64_t b, std::uint64_t e) {
        rp->fn(rp->psi, *rp->pg, b * kRangeGranule,
               std::min(e * kRangeGranule, rp->counters));
      });
}

}  // namespace svsim::sv
