// Gate-application kernels over the raw amplitude array.
//
// Each kernel streams the state once. The 1-qubit iteration is written as
// (block, contiguous-run) loops rather than a per-pair index computation so
// the inner loop is a unit-stride sweep the compiler can vectorize; for a
// target qubit t the contiguous run length is 2^t, which is exactly the
// low-target SIMD-efficiency effect the A64FX performance model captures.
//
// Index conventions match qc::Gate: for a k-qubit kernel, qs[0] is the least
// significant bit of the matrix index.
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

// ---- 1-qubit kernels ------------------------------------------------------

/// General 2x2: [a0', a1'] = [[m00 m01],[m10 m11]] [a0, a1].
template <typename T>
void apply_matrix1(std::complex<T>* psi, unsigned n, unsigned t,
                   const qc::Matrix& u, ThreadPool& pool) {
  SVSIM_ASSERT(u.dim() == 2 && t < n);
  const std::complex<T> m00 = detail::cast_c<T>(u(0, 0));
  const std::complex<T> m01 = detail::cast_c<T>(u(0, 1));
  const std::complex<T> m10 = detail::cast_c<T>(u(1, 0));
  const std::complex<T> m11 = detail::cast_c<T>(u(1, 1));
  const std::uint64_t stride = pow2(t);
  pool.parallel_for(
      pow2(n - 1), detail::amp_bytes<T>(2),
      [=](unsigned, std::uint64_t b, std::uint64_t e) {
        detail::for_pair_runs(b, e, t, [&](std::uint64_t base,
                                           std::uint64_t run) {
          std::complex<T>* lo = psi + base;
          std::complex<T>* hi = psi + base + stride;
          for (std::uint64_t j = 0; j < run; ++j) {
            const std::complex<T> a0 = lo[j];
            const std::complex<T> a1 = hi[j];
            lo[j] = m00 * a0 + m01 * a1;
            hi[j] = m10 * a0 + m11 * a1;
          }
        });
      });
}

/// Reference variant of apply_matrix1 that computes each pair index with
/// insert_zero_bit instead of run blocking. Same result, but the inner loop
/// has a data-dependent index chain the vectorizer cannot see through —
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

/// Hadamard: fewer multiplies than the general path.
template <typename T>
void apply_h(std::complex<T>* psi, unsigned n, unsigned t, ThreadPool& pool) {
  const T inv_sqrt2 = static_cast<T>(0.70710678118654752440);
  const std::uint64_t stride = pow2(t);
  pool.parallel_for(
      pow2(n - 1), detail::amp_bytes<T>(2),
      [=](unsigned, std::uint64_t b, std::uint64_t e) {
        detail::for_pair_runs(b, e, t, [&](std::uint64_t base,
                                           std::uint64_t run) {
          std::complex<T>* lo = psi + base;
          std::complex<T>* hi = psi + base + stride;
          for (std::uint64_t j = 0; j < run; ++j) {
            const std::complex<T> a0 = lo[j];
            const std::complex<T> a1 = hi[j];
            lo[j] = (a0 + a1) * inv_sqrt2;
            hi[j] = (a0 - a1) * inv_sqrt2;
          }
        });
      });
}

/// X: pure swap of pair halves (no arithmetic).
template <typename T>
void apply_x(std::complex<T>* psi, unsigned n, unsigned t, ThreadPool& pool) {
  const std::uint64_t stride = pow2(t);
  pool.parallel_for(
      pow2(n - 1), detail::amp_bytes<T>(2),
      [=](unsigned, std::uint64_t b, std::uint64_t e) {
        detail::for_pair_runs(b, e, t, [&](std::uint64_t base,
                                           std::uint64_t run) {
          std::complex<T>* lo = psi + base;
          std::complex<T>* hi = psi + base + stride;
          for (std::uint64_t j = 0; j < run; ++j) std::swap(lo[j], hi[j]);
        });
      });
}

/// Y = [[0,-i],[i,0]]: swap with ±i phases.
template <typename T>
void apply_y(std::complex<T>* psi, unsigned n, unsigned t, ThreadPool& pool) {
  const std::uint64_t stride = pow2(t);
  pool.parallel_for(
      pow2(n - 1), detail::amp_bytes<T>(2),
      [=](unsigned, std::uint64_t b, std::uint64_t e) {
        detail::for_pair_runs(b, e, t, [&](std::uint64_t base,
                                           std::uint64_t run) {
          std::complex<T>* lo = psi + base;
          std::complex<T>* hi = psi + base + stride;
          for (std::uint64_t j = 0; j < run; ++j) {
            const std::complex<T> a0 = lo[j];
            const std::complex<T> a1 = hi[j];
            lo[j] = std::complex<T>{a1.imag(), -a1.real()};   // -i * a1
            hi[j] = std::complex<T>{-a0.imag(), a0.real()};   //  i * a0
          }
        });
      });
}

/// Diagonal 1-qubit gate diag(d0, d1). When d0 == 1 (Z, S, T, P) only the
/// |1> half of each pair is touched — half the memory traffic, which the
/// performance model accounts for.
template <typename T>
void apply_diag1(std::complex<T>* psi, unsigned n, unsigned t, qc::cplx d0,
                 qc::cplx d1, ThreadPool& pool) {
  const std::complex<T> f0 = detail::cast_c<T>(d0);
  const std::complex<T> f1 = detail::cast_c<T>(d1);
  const std::uint64_t stride = pow2(t);
  const bool skip_lower = (d0 == qc::cplx{1.0, 0.0});
  pool.parallel_for(
      pow2(n - 1), detail::amp_bytes<T>(2),
      [=](unsigned, std::uint64_t b, std::uint64_t e) {
        detail::for_pair_runs(b, e, t, [&](std::uint64_t base,
                                           std::uint64_t run) {
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
      });
}

// ---- controlled 1-qubit kernels --------------------------------------------

/// General 2x2 on `t`, applied only where every control bit is 1.
template <typename T>
void apply_controlled_matrix1(std::complex<T>* psi, unsigned n,
                              const std::vector<unsigned>& controls,
                              unsigned t, const qc::Matrix& u,
                              ThreadPool& pool) {
  SVSIM_ASSERT(u.dim() == 2 && t < n);
  if (controls.empty()) {
    apply_matrix1(psi, n, t, u, pool);
    return;
  }
  const std::complex<T> m00 = detail::cast_c<T>(u(0, 0));
  const std::complex<T> m01 = detail::cast_c<T>(u(0, 1));
  const std::complex<T> m10 = detail::cast_c<T>(u(1, 0));
  const std::complex<T> m11 = detail::cast_c<T>(u(1, 1));

  std::vector<unsigned> positions = controls;
  positions.push_back(t);
  std::sort(positions.begin(), positions.end());
  std::uint64_t cmask = 0;
  for (unsigned c : controls) cmask |= pow2(c);
  const std::uint64_t tbit = pow2(t);
  const unsigned free_bits = n - static_cast<unsigned>(positions.size());

  pool.parallel_for(
      pow2(free_bits), detail::amp_bytes<T>(2),
      [=, &positions](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t i0 = insert_zero_bits(c, positions) | cmask;
          const std::uint64_t i1 = i0 | tbit;
          const std::complex<T> a0 = psi[i0];
          const std::complex<T> a1 = psi[i1];
          psi[i0] = m00 * a0 + m01 * a1;
          psi[i1] = m10 * a0 + m11 * a1;
        }
      });
}

/// CX: swap the target pair where all controls are 1 (covers CCX/MCX too).
template <typename T>
void apply_mcx(std::complex<T>* psi, unsigned n,
               const std::vector<unsigned>& controls, unsigned t,
               ThreadPool& pool) {
  std::vector<unsigned> positions = controls;
  positions.push_back(t);
  std::sort(positions.begin(), positions.end());
  std::uint64_t cmask = 0;
  for (unsigned c : controls) cmask |= pow2(c);
  const std::uint64_t tbit = pow2(t);
  const unsigned free_bits = n - static_cast<unsigned>(positions.size());
  pool.parallel_for(
      pow2(free_bits), detail::amp_bytes<T>(2),
      [=, &positions](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t i0 = insert_zero_bits(c, positions) | cmask;
          std::swap(psi[i0], psi[i0 | tbit]);
        }
      });
}

/// Multi-controlled phase: multiplies the single amplitude subset where all
/// of `qubits` (controls AND target — MCP is symmetric) are 1 by `phase`.
template <typename T>
void apply_mc_phase(std::complex<T>* psi, unsigned n,
                    const std::vector<unsigned>& qubits, qc::cplx phase,
                    ThreadPool& pool) {
  std::vector<unsigned> positions = qubits;
  std::sort(positions.begin(), positions.end());
  std::uint64_t mask = 0;
  for (unsigned q : qubits) mask |= pow2(q);
  const std::complex<T> f = detail::cast_c<T>(phase);
  const unsigned free_bits = n - static_cast<unsigned>(positions.size());
  pool.parallel_for(
      pow2(free_bits), detail::amp_bytes<T>(1),
      [=, &positions](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c)
          psi[insert_zero_bits(c, positions) | mask] *= f;
      });
}

/// Controlled diag(d0, d1) on target t (covers CZ, CP, CRZ, CCZ).
template <typename T>
void apply_controlled_diag1(std::complex<T>* psi, unsigned n,
                            const std::vector<unsigned>& controls, unsigned t,
                            qc::cplx d0, qc::cplx d1, ThreadPool& pool) {
  if (d0 == qc::cplx{1.0, 0.0}) {
    // Only the all-controls-1, target-1 subspace is scaled.
    std::vector<unsigned> qs = controls;
    qs.push_back(t);
    apply_mc_phase(psi, n, qs, d1, pool);
    return;
  }
  std::vector<unsigned> positions = controls;
  positions.push_back(t);
  std::sort(positions.begin(), positions.end());
  std::uint64_t cmask = 0;
  for (unsigned c : controls) cmask |= pow2(c);
  const std::uint64_t tbit = pow2(t);
  const std::complex<T> f0 = detail::cast_c<T>(d0);
  const std::complex<T> f1 = detail::cast_c<T>(d1);
  const unsigned free_bits = n - static_cast<unsigned>(positions.size());
  pool.parallel_for(
      pow2(free_bits), detail::amp_bytes<T>(2),
      [=, &positions](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t i0 = insert_zero_bits(c, positions) | cmask;
          psi[i0] *= f0;
          psi[i0 | tbit] *= f1;
        }
      });
}

// ---- 2-qubit kernels --------------------------------------------------------

/// SWAP: exchanges amplitudes whose bits at (q0, q1) are (0,1) and (1,0).
template <typename T>
void apply_swap(std::complex<T>* psi, unsigned n, unsigned q0, unsigned q1,
                ThreadPool& pool) {
  std::vector<unsigned> positions = {std::min(q0, q1), std::max(q0, q1)};
  const std::uint64_t b0 = pow2(q0), b1 = pow2(q1);
  pool.parallel_for(
      pow2(n - 2), detail::amp_bytes<T>(2),
      [=, &positions](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t base = insert_zero_bits(c, positions);
          std::swap(psi[base | b0], psi[base | b1]);
        }
      });
}

/// General 4x4 on (q0, q1) with q0 the matrix LSB.
template <typename T>
void apply_matrix2(std::complex<T>* psi, unsigned n, unsigned q0, unsigned q1,
                   const qc::Matrix& u, ThreadPool& pool) {
  SVSIM_ASSERT(u.dim() == 4 && q0 != q1 && q0 < n && q1 < n);
  std::array<std::complex<T>, 16> m;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      m[r * 4 + c] = detail::cast_c<T>(u(r, c));
  std::vector<unsigned> positions = {std::min(q0, q1), std::max(q0, q1)};
  const std::uint64_t b0 = pow2(q0), b1 = pow2(q1);
  pool.parallel_for(
      pow2(n - 2), detail::amp_bytes<T>(4),
      [=, &positions](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t base = insert_zero_bits(c, positions);
          const std::uint64_t i[4] = {base, base | b0, base | b1,
                                      base | b0 | b1};
          const std::complex<T> a0 = psi[i[0]], a1 = psi[i[1]], a2 = psi[i[2]],
                                a3 = psi[i[3]];
          psi[i[0]] = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
          psi[i[1]] = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
          psi[i[2]] = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
          psi[i[3]] = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
        }
      });
}

/// Diagonal 2-qubit gate diag(d00, d01, d10, d11) on (q0, q1), q0 = LSB.
template <typename T>
void apply_diag2(std::complex<T>* psi, unsigned n, unsigned q0, unsigned q1,
                 const std::array<qc::cplx, 4>& d, ThreadPool& pool) {
  std::array<std::complex<T>, 4> f;
  for (std::size_t i = 0; i < 4; ++i) f[i] = detail::cast_c<T>(d[i]);
  const std::uint64_t m0 = pow2(q0), m1 = pow2(q1);
  pool.parallel_for(
      pow2(n), detail::amp_bytes<T>(1),
      [=](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
          const unsigned s = static_cast<unsigned>(((i & m1) != 0) * 2 +
                                                   ((i & m0) != 0));
          psi[i] *= f[s];
        }
      });
}

// ---- k-qubit kernels ---------------------------------------------------------

/// Dense 2^k x 2^k unitary on qs (qs[0] = matrix LSB). Practical for k <= 6;
/// this is the fused-gate execution path.
template <typename T>
void apply_matrix_k(std::complex<T>* psi, unsigned n,
                    const std::vector<unsigned>& qs, const qc::Matrix& u,
                    ThreadPool& pool) {
  const unsigned k = static_cast<unsigned>(qs.size());
  SVSIM_ASSERT(u.dim() == pow2(k) && k <= n);
  require(k <= 10, "apply_matrix_k: fused width too large");
  const std::uint64_t sub = pow2(k);

  // Precompute the scatter offsets of each sub-index and cast the matrix.
  std::vector<std::uint64_t> offs(sub);
  for (std::uint64_t s = 0; s < sub; ++s) offs[s] = scatter_bits(s, qs);
  std::vector<std::complex<T>> m(sub * sub);
  for (std::uint64_t r = 0; r < sub; ++r)
    for (std::uint64_t c = 0; c < sub; ++c)
      m[r * sub + c] = detail::cast_c<T>(u(r, c));

  std::vector<unsigned> positions = qs;
  std::sort(positions.begin(), positions.end());

  pool.parallel_for(
      pow2(n - k), detail::amp_bytes<T>(sub),
      [=, &positions, &offs, &m](unsigned, std::uint64_t b, std::uint64_t e) {
        std::vector<std::complex<T>> in(sub);
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t base = insert_zero_bits(c, positions);
          for (std::uint64_t s = 0; s < sub; ++s) in[s] = psi[base | offs[s]];
          for (std::uint64_t r = 0; r < sub; ++r) {
            std::complex<T> acc{};
            const std::complex<T>* row = m.data() + r * sub;
            for (std::uint64_t s = 0; s < sub; ++s) acc += row[s] * in[s];
            psi[base | offs[r]] = acc;
          }
        }
      });
}

/// Diagonal unitary on qs: psi[i] *= d[gather(i, qs)].
template <typename T>
void apply_diag_k(std::complex<T>* psi, unsigned n,
                  const std::vector<unsigned>& qs,
                  const std::vector<qc::cplx>& d, ThreadPool& pool) {
  const unsigned k = static_cast<unsigned>(qs.size());
  SVSIM_ASSERT(d.size() == pow2(k));
  std::vector<std::complex<T>> f(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) f[i] = detail::cast_c<T>(d[i]);
  pool.parallel_for(
      pow2(n), detail::amp_bytes<T>(1),
      [=, &qs, &f](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) psi[i] *= f[gather_bits(i, qs)];
      });
}

// ---- block-local kernels and the dispatch table -----------------------------
//
// The cache-blocked engine (sv/engine.hpp) applies a *sweep* of gates to one
// aligned block of 2^b amplitudes at a time while the block is L2-resident.
// The kernel contract for this path (documented in docs/ARCHITECTURE.md):
//
//  * Operands: every operand qubit of the gate is < b, so the gate acts
//    identically and independently on each aligned block — the block kernel
//    is the same math as the whole-state kernel with n replaced by b.
//  * Threading: block kernels are SERIAL. The engine owns parallelism (one
//    parallel_for over blocks, statically partitioned so each worker streams
//    the pages it first-touched); a block kernel must never re-enter the
//    pool.
//  * Coefficients: pre-cast once per sweep into PreparedGate<T> — the
//    per-block loop does no matrix conversion or allocation (MatrixK uses a
//    fixed stack scratch, hence its k <= 8 limit).
//  * Dispatch: one indirect call per (gate, block) through
//    block_kernel_table<T>(), indexed by KernelClass.

/// Kernel specialization classes the dispatcher distinguishes. Order is the
/// dispatch-table index; keep kernel_class_name and block_kernel_table in
/// sync.
enum class KernelClass : std::uint8_t {
  Nop = 0,      ///< I / BARRIER
  PermX,        ///< X: pure pair swap, no arithmetic
  PermY,        ///< Y: pair swap with ±i phases
  PermSwap,     ///< SWAP: (01)<->(10) amplitude exchange
  Mcx,          ///< CX/CCX/MCX: controlled pair swap
  Hadamard,     ///< H: add/sub + scale
  Diag1,        ///< Z/S/T/P/RZ: diag(d0, d1)
  CtrlDiag1,    ///< CRZ (controlled diagonal with d0 != 1)
  McPhase,      ///< CZ/CP/CCZ/MCP: one phased amplitude subset
  Diag2,        ///< RZZ: 4-entry diagonal
  DiagK,        ///< DIAG: 2^k-entry diagonal
  Matrix1,      ///< general 2x2
  CtrlMatrix1,  ///< CY/CH/CRX/CRY: controlled 2x2
  Matrix2,      ///< general (fused) 4x4
  MatrixK,      ///< dense 2^k x 2^k (fusion output, CSWAP)
  Unsupported,  ///< MEASURE / RESET: not a unitary kernel
};

inline constexpr std::size_t kNumKernelClasses = 16;

const char* kernel_class_name(KernelClass c);

/// Maps a gate to its kernel class. Total: every GateKind classifies
/// (MEASURE/RESET as Unsupported). This is the single source of truth for
/// which specialized kernel serves a gate on the blocked path.
KernelClass classify_gate(const qc::Gate& g);

/// A gate resolved for block-local application: kernel class plus every
/// coefficient pre-cast to the state precision, so applying it to a block
/// touches only the block's amplitudes.
template <typename T>
struct PreparedGate {
  KernelClass cls = KernelClass::Nop;
  std::vector<unsigned> qubits;   ///< operands, gate order (qubits[0] = LSB)
  std::vector<unsigned> sorted;   ///< ascending operand bit positions
  unsigned target = 0;            ///< target qubit (1-target kernels)
  std::uint64_t cmask = 0;        ///< OR of control bits
  std::uint64_t mask = 0;         ///< OR of all operand bits (McPhase)
  /// Class-dependent payload: Diag1/CtrlDiag1 {d0,d1}; McPhase {phase};
  /// Matrix1/CtrlMatrix1 4; Diag2 4; Matrix2 16; DiagK 2^k; MatrixK 4^k.
  std::vector<std::complex<T>> coeff;
  std::vector<std::uint64_t> offs;  ///< MatrixK sub-index scatter offsets
};

namespace detail::blk {

/// Highest operand qubit + 1 (0 for operand-free gates): the minimum block
/// exponent this prepared gate is valid for.
template <typename T>
unsigned min_block_qubits(const PreparedGate<T>& pg) {
  unsigned m = 0;
  for (unsigned q : pg.qubits) m = std::max(m, q + 1);
  return m;
}

template <typename T>
void bk_nop(std::complex<T>*, unsigned, const PreparedGate<T>&) {}

template <typename T>
void bk_perm_x(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(0, pow2(nb - 1), t, [&](std::uint64_t base, std::uint64_t run) {
    std::complex<T>* lo = psi + base;
    std::complex<T>* hi = psi + base + stride;
    for (std::uint64_t j = 0; j < run; ++j) std::swap(lo[j], hi[j]);
  });
}

template <typename T>
void bk_perm_y(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(0, pow2(nb - 1), t, [&](std::uint64_t base, std::uint64_t run) {
    std::complex<T>* lo = psi + base;
    std::complex<T>* hi = psi + base + stride;
    for (std::uint64_t j = 0; j < run; ++j) {
      const std::complex<T> a0 = lo[j];
      const std::complex<T> a1 = hi[j];
      lo[j] = std::complex<T>{a1.imag(), -a1.real()};
      hi[j] = std::complex<T>{-a0.imag(), a0.real()};
    }
  });
}

template <typename T>
void bk_hadamard(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const T inv_sqrt2 = static_cast<T>(0.70710678118654752440);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(0, pow2(nb - 1), t, [&](std::uint64_t base, std::uint64_t run) {
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

template <typename T>
void bk_diag1(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const std::complex<T> f0 = pg.coeff[0];
  const std::complex<T> f1 = pg.coeff[1];
  const bool skip_lower = (f0 == std::complex<T>{T{1}, T{0}});
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(0, pow2(nb - 1), t, [&](std::uint64_t base, std::uint64_t run) {
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
void bk_matrix1(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const std::complex<T> m00 = pg.coeff[0], m01 = pg.coeff[1];
  const std::complex<T> m10 = pg.coeff[2], m11 = pg.coeff[3];
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_pair_runs(0, pow2(nb - 1), t, [&](std::uint64_t base, std::uint64_t run) {
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
void bk_mcx(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const std::uint64_t tbit = pow2(pg.target);
  const unsigned free_bits = nb - static_cast<unsigned>(pg.sorted.size());
  for (std::uint64_t c = 0; c < pow2(free_bits); ++c) {
    const std::uint64_t i0 = insert_zero_bits(c, pg.sorted) | pg.cmask;
    std::swap(psi[i0], psi[i0 | tbit]);
  }
}

template <typename T>
void bk_ctrl_matrix1(std::complex<T>* psi, unsigned nb,
                     const PreparedGate<T>& pg) {
  const std::complex<T> m00 = pg.coeff[0], m01 = pg.coeff[1];
  const std::complex<T> m10 = pg.coeff[2], m11 = pg.coeff[3];
  const std::uint64_t tbit = pow2(pg.target);
  const unsigned free_bits = nb - static_cast<unsigned>(pg.sorted.size());
  for (std::uint64_t c = 0; c < pow2(free_bits); ++c) {
    const std::uint64_t i0 = insert_zero_bits(c, pg.sorted) | pg.cmask;
    const std::uint64_t i1 = i0 | tbit;
    const std::complex<T> a0 = psi[i0];
    const std::complex<T> a1 = psi[i1];
    psi[i0] = m00 * a0 + m01 * a1;
    psi[i1] = m10 * a0 + m11 * a1;
  }
}

template <typename T>
void bk_ctrl_diag1(std::complex<T>* psi, unsigned nb,
                   const PreparedGate<T>& pg) {
  const std::complex<T> f0 = pg.coeff[0];
  const std::complex<T> f1 = pg.coeff[1];
  const std::uint64_t tbit = pow2(pg.target);
  const unsigned free_bits = nb - static_cast<unsigned>(pg.sorted.size());
  for (std::uint64_t c = 0; c < pow2(free_bits); ++c) {
    const std::uint64_t i0 = insert_zero_bits(c, pg.sorted) | pg.cmask;
    psi[i0] *= f0;
    psi[i0 | tbit] *= f1;
  }
}

template <typename T>
void bk_mc_phase(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const std::complex<T> f = pg.coeff[0];
  const unsigned free_bits = nb - static_cast<unsigned>(pg.sorted.size());
  for (std::uint64_t c = 0; c < pow2(free_bits); ++c)
    psi[insert_zero_bits(c, pg.sorted) | pg.mask] *= f;
}

template <typename T>
void bk_perm_swap(std::complex<T>* psi, unsigned nb,
                  const PreparedGate<T>& pg) {
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  for (std::uint64_t c = 0; c < pow2(nb - 2); ++c) {
    const std::uint64_t base = insert_zero_bits(c, pg.sorted);
    std::swap(psi[base | b0], psi[base | b1]);
  }
}

template <typename T>
void bk_matrix2(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const std::complex<T>* m = pg.coeff.data();
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  for (std::uint64_t c = 0; c < pow2(nb - 2); ++c) {
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
void bk_diag2(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const std::uint64_t m0 = pow2(pg.qubits[0]), m1 = pow2(pg.qubits[1]);
  for (std::uint64_t i = 0; i < pow2(nb); ++i) {
    const unsigned s =
        static_cast<unsigned>(((i & m1) != 0) * 2 + ((i & m0) != 0));
    psi[i] *= pg.coeff[s];
  }
}

template <typename T>
void bk_diag_k(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  for (std::uint64_t i = 0; i < pow2(nb); ++i)
    psi[i] *= pg.coeff[gather_bits(i, pg.qubits)];
}

/// MatrixK block limit: fixed stack scratch of 2^8 amplitudes.
inline constexpr unsigned kMaxBlockMatrixK = 8;

template <typename T>
void bk_matrix_k(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  const unsigned k = static_cast<unsigned>(pg.qubits.size());
  const std::uint64_t sub = pow2(k);
  std::array<std::complex<T>, pow2(kMaxBlockMatrixK)> in;
  const unsigned free_bits = nb - k;
  for (std::uint64_t c = 0; c < pow2(free_bits); ++c) {
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
void bk_unsupported(std::complex<T>*, unsigned, const PreparedGate<T>&) {
  throw Error("block kernel: MEASURE/RESET are not block-local");
}

}  // namespace detail::blk

/// Serial block-kernel signature: apply to block[0 .. 2^nb).
template <typename T>
using BlockKernelFn = void (*)(std::complex<T>*, unsigned nb,
                               const PreparedGate<T>&);

/// The portable scalar reference table, indexed by KernelClass. SIMD
/// backends (sv/simd) derive their tables from this one, substituting
/// hand-vectorized entries; it also serves as the equivalence oracle in
/// tests.
template <typename T>
inline const std::array<BlockKernelFn<T>, kNumKernelClasses>&
block_kernel_table() {
  namespace blk = detail::blk;
  static const std::array<BlockKernelFn<T>, kNumKernelClasses> table = {
      &blk::bk_nop<T>,          &blk::bk_perm_x<T>,
      &blk::bk_perm_y<T>,       &blk::bk_perm_swap<T>,
      &blk::bk_mcx<T>,          &blk::bk_hadamard<T>,
      &blk::bk_diag1<T>,        &blk::bk_ctrl_diag1<T>,
      &blk::bk_mc_phase<T>,     &blk::bk_diag2<T>,
      &blk::bk_diag_k<T>,       &blk::bk_matrix1<T>,
      &blk::bk_ctrl_matrix1<T>, &blk::bk_matrix2<T>,
      &blk::bk_matrix_k<T>,     &blk::bk_unsupported<T>,
  };
  return table;
}

/// The table of the active SIMD backend (scalar entries where the backend
/// has no hand-vectorized kernel). Defined in sv/simd/registry.cpp; the
/// first call triggers runtime CPU detection / the SVSIM_SIMD override
/// (see sv/simd/simd.hpp).
template <typename T>
const std::array<BlockKernelFn<T>, kNumKernelClasses>&
active_block_kernel_table();

template <>
const std::array<BlockKernelFn<float>, kNumKernelClasses>&
active_block_kernel_table<float>();
template <>
const std::array<BlockKernelFn<double>, kNumKernelClasses>&
active_block_kernel_table<double>();

/// Resolves `g` for block-local application: classifies it and pre-casts
/// every coefficient to precision T. Throws for MEASURE/RESET and for dense
/// payloads wider than the block path supports.
template <typename T>
PreparedGate<T> prepare_gate(const qc::Gate& g);

extern template PreparedGate<float> prepare_gate<float>(const qc::Gate&);
extern template PreparedGate<double> prepare_gate<double>(const qc::Gate&);

/// Applies a prepared gate serially to one aligned block of 2^nb amplitudes.
/// Precondition (the kernel contract): every operand qubit < nb.
template <typename T>
inline void apply_gate_in_block(std::complex<T>* block, unsigned nb,
                                const PreparedGate<T>& pg) {
  SVSIM_ASSERT(detail::blk::min_block_qubits(pg) <= nb);
  active_block_kernel_table<T>()[static_cast<std::size_t>(pg.cls)](block, nb,
                                                                  pg);
}

}  // namespace svsim::sv
