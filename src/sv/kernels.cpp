#include "sv/kernels.hpp"

#include <algorithm>

namespace svsim::sv {

using qc::Gate;
using qc::GateKind;

const char* kernel_class_name(KernelClass c) {
  switch (c) {
    case KernelClass::Nop: return "nop";
    case KernelClass::PermX: return "perm_x";
    case KernelClass::PermY: return "perm_y";
    case KernelClass::PermSwap: return "perm_swap";
    case KernelClass::Mcx: return "mcx";
    case KernelClass::Hadamard: return "h";
    case KernelClass::Diag1: return "diag1";
    case KernelClass::McPhase: return "mcphase";
    case KernelClass::DiagK: return "diagk";
    case KernelClass::Matrix1: return "mat1";
    case KernelClass::CtrlMatrix1: return "cmat1";
    case KernelClass::Matrix2: return "mat2";
    case KernelClass::MatrixK: return "matk";
    case KernelClass::Unsupported: return "unsupported";
  }
  return "?";
}

KernelClass classify_gate(const Gate& g) {
  switch (g.kind) {
    case GateKind::I:
    case GateKind::BARRIER:
      return KernelClass::Nop;
    case GateKind::X:
      return KernelClass::PermX;
    case GateKind::Y:
      return KernelClass::PermY;
    case GateKind::H:
      return KernelClass::Hadamard;
    case GateKind::Z:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::P:
    case GateKind::RZ:
      return KernelClass::Diag1;
    case GateKind::SX:
    case GateKind::SXdg:
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::U:
      return KernelClass::Matrix1;
    case GateKind::CX:
    case GateKind::CCX:
    case GateKind::MCX:
      return KernelClass::Mcx;
    // CZ/CP/CCZ/MCP apply diag(1, phase) on the target: only the all-ones
    // operand subspace is scaled — the controlled-phase specialization.
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::CCZ:
    case GateKind::MCP:
      return KernelClass::McPhase;
    case GateKind::CY:
    case GateKind::CH:
    case GateKind::CRX:
    case GateKind::CRY:
      return KernelClass::CtrlMatrix1;
    case GateKind::SWAP:
      return KernelClass::PermSwap;
    case GateKind::ISWAP:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::U2Q:
      return KernelClass::Matrix2;
    case GateKind::CSWAP:
      return KernelClass::MatrixK;
    // RZZ is diag(e^-iθ/2, e^iθ/2, e^iθ/2, e^-iθ/2) and CRZ is one on its
    // control-0 half: both are served as the diagonals they are.
    case GateKind::RZZ:
    case GateKind::CRZ:
    case GateKind::DIAG:
      return KernelClass::DiagK;
    case GateKind::UNITARY:
      return unitary_class(g.num_qubits());
    case GateKind::MEASURE:
    case GateKind::RESET:
      return KernelClass::Unsupported;
  }
  return KernelClass::Unsupported;
}

KernelClass unitary_class(unsigned k) {
  if (k == 1) return KernelClass::Matrix1;
  if (k == 2) return KernelClass::Matrix2;
  return KernelClass::MatrixK;
}

namespace {

/// Entry i of the diagonal of a DiagK gate (qubits[0] = LSB of i), the
/// value Gate::matrix() holds, computed without building the matrix.
qc::cplx diagonal_entry(const Gate& g, std::uint64_t i) {
  if (g.kind == GateKind::DIAG) return g.diagonal_entries()[i];
  const qc::cplx em = std::polar(1.0, -g.params.at(0) / 2);
  const qc::cplx ep = std::polar(1.0, g.params.at(0) / 2);
  if (g.kind == GateKind::RZZ) return i == 0 || i == 3 ? em : ep;
  SVSIM_ASSERT(g.kind == GateKind::CRZ);
  if ((i & 1) == 0) return 1.0;  // control (qubits[0]) is 0
  return (i & 2) != 0 ? ep : em;
}

/// Sets the share, select bits and patterns of a diagonal kernel that
/// touches exactly the local indices i < 2^k where `kept(i)`.
template <typename Kept>
void set_kept_entries(KernelWork& w, const Gate& g, Kept&& kept) {
  const unsigned k = g.num_qubits();
  const std::uint64_t all = pow2(k) - 1;
  std::uint64_t ones = all, zeros = all, skipped = 0;
  for (std::uint64_t i = 0; i <= all; ++i) {
    if (!kept(i)) {
      ++skipped;
      continue;
    }
    ones &= i;
    zeros &= ~i;
  }
  w.active = 1.0 - static_cast<double>(skipped) / static_cast<double>(all + 1);
  w.patterns = skipped <= all ? 1 : 0;
  for (unsigned j = 0; j < k; ++j)
    if (((ones | zeros) >> j & 1) != 0) w.select |= pow2(g.qubits[j]);
}

}  // namespace

KernelWork dense_work(unsigned k) {
  KernelWork w;
  w.cls = unitary_class(k);
  w.counter_bits = k;
  w.counter_amps = static_cast<unsigned>(pow2(k));
  w.multiplies = w.counter_amps;
  return w;
}

KernelWork kernel_work(const Gate& g) {
  KernelWork w;
  w.cls = classify_gate(g);
  if (w.cls == KernelClass::Nop || w.cls == KernelClass::Unsupported)
    return w;
  const unsigned k = g.num_qubits();
  w.counter_bits = k;
  w.counter_amps = 2;
  w.multiplies = 1;
  w.run_qubit = *std::min_element(g.qubits.begin(), g.qubits.end());
  switch (w.cls) {
    case KernelClass::PermX:
    case KernelClass::PermY:
      w.multiplies = 0;
      break;
    case KernelClass::Hadamard:
      break;
    case KernelClass::Mcx:
    case KernelClass::CtrlMatrix1:
      // Controls lead the operands, the one target is last.
      for (unsigned i = 0; i + 1 < k; ++i) w.select |= pow2(g.qubits[i]);
      w.run_qubit = g.qubits.back();
      w.multiplies = w.cls == KernelClass::Mcx ? 0 : 2;
      break;
    case KernelClass::PermSwap:
      w.select = pow2(g.qubits[0]) | pow2(g.qubits[1]);
      w.patterns = 2;
      w.multiplies = 0;
      break;
    case KernelClass::McPhase:
      for (unsigned q : g.qubits) w.select |= pow2(q);
      w.counter_amps = 1;
      break;
    case KernelClass::Diag1: {
      // The kernel skips the |0> half of each pair when d0 is one (always
      // for Z/S/T/P; for RZ only at angle zero).
      const bool skip_d0 = g.kind != GateKind::RZ ||
                           std::polar(1.0, -g.params.at(0) / 2) == 1.0;
      set_kept_entries(w, g,
                       [&](std::uint64_t i) { return i == 1 || !skip_d0; });
      break;
    }
    case KernelClass::DiagK:
      w.counter_bits = 0;
      w.counter_amps = 1;
      set_kept_entries(w, g, [&](std::uint64_t i) {
        return diagonal_entry(g, i) != 1.0;
      });
      break;
    case KernelClass::Matrix1:
    case KernelClass::Matrix2:
    case KernelClass::MatrixK: {
      const unsigned run = w.run_qubit;
      w = dense_work(k);
      w.run_qubit = run;
      break;
    }
    case KernelClass::Nop:
    case KernelClass::Unsupported:
      break;  // returned above
  }
  return w;
}

double kernel_price(const KernelWork& w) {
  return w.touched_share() * (w.multiplies + 1.0);
}

namespace {

template <typename T>
std::vector<std::complex<T>> cast_matrix(const qc::Matrix& u) {
  std::vector<std::complex<T>> m(u.dim() * u.dim());
  for (std::size_t r = 0; r < u.dim(); ++r)
    for (std::size_t c = 0; c < u.dim(); ++c)
      m[r * u.dim() + c] = detail::cast_c<T>(u(r, c));
  return m;
}

}  // namespace

template <typename T>
PreparedGate<T> prepare_gate(const Gate& g) {
  const KernelWork w = kernel_work(g);
  require(w.cls != KernelClass::Unsupported,
          "prepare_gate: MEASURE/RESET have no unitary kernel");
  PreparedGate<T> pg;
  pg.cls = w.cls;
  pg.counter_bits = w.counter_bits;
  pg.counter_amps = w.counter_amps;
  pg.qubits = g.qubits;

  // Sorted operand positions + masks (used by the gather-style kernels).
  pg.sorted = g.qubits;
  std::sort(pg.sorted.begin(), pg.sorted.end());
  for (unsigned q : g.qubits) pg.mask |= pow2(q);
  const unsigned nc = g.num_controls();
  for (unsigned i = 0; i < nc; ++i) pg.cmask |= pow2(g.qubits[i]);
  pg.target = nc < g.qubits.size() ? g.qubits[nc] : 0;

  const unsigned k = g.num_qubits();
  switch (pg.cls) {
    case KernelClass::Diag1: {
      const qc::Matrix u = g.matrix();
      pg.coeff = {detail::cast_c<T>(u(0, 0)), detail::cast_c<T>(u(1, 1))};
      break;
    }
    case KernelClass::McPhase:
      pg.coeff = {detail::cast_c<T>(g.target_matrix()(1, 1))};
      break;
    case KernelClass::CtrlMatrix1:
      pg.coeff = cast_matrix<T>(g.target_matrix());
      break;
    case KernelClass::DiagK:
      pg.coeff.resize(pow2(k));
      for (std::uint64_t i = 0; i < pg.coeff.size(); ++i)
        pg.coeff[i] = detail::cast_c<T>(diagonal_entry(g, i));
      break;
    case KernelClass::Matrix1:
    case KernelClass::Matrix2:
    case KernelClass::MatrixK:
      require(k <= kMaxMatrixK, "prepare_gate: dense width too large");
      pg.coeff = cast_matrix<T>(g.kind == GateKind::UNITARY
                                    ? g.matrix_payload()
                                    : g.matrix());
      if (pg.cls == KernelClass::MatrixK) {
        pg.offs.resize(pow2(k));
        for (std::uint64_t s = 0; s < pg.offs.size(); ++s)
          pg.offs[s] = scatter_bits(s, g.qubits);
      }
      break;
    default:
      break;  // the permutations, Hadamard and Nop carry no coefficients
  }
  return pg;
}

template PreparedGate<float> prepare_gate<float>(const Gate&);
template PreparedGate<double> prepare_gate<double>(const Gate&);

}  // namespace svsim::sv
