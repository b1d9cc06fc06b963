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
    case KernelClass::CtrlDiag1: return "cdiag1";
    case KernelClass::McPhase: return "mcphase";
    case KernelClass::Diag2: return "diag2";
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
    case GateKind::CRZ:
      return KernelClass::CtrlDiag1;
    case GateKind::CY:
    case GateKind::CH:
    case GateKind::CRX:
    case GateKind::CRY:
      return KernelClass::CtrlMatrix1;
    case GateKind::SWAP:
      return KernelClass::PermSwap;
    case GateKind::RZZ:
      return KernelClass::Diag2;
    case GateKind::ISWAP:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::U2Q:
      return KernelClass::Matrix2;
    case GateKind::CSWAP:
      return KernelClass::MatrixK;
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

double kernel_price(KernelClass cls, unsigned counter_bits,
                    unsigned counter_amps, double active) {
  double multiplies = 1.0;
  switch (cls) {
    case KernelClass::Nop:
      return 0.0;
    case KernelClass::PermX:
    case KernelClass::PermY:
    case KernelClass::PermSwap:
    case KernelClass::Mcx:
      multiplies = 0.0;
      break;
    case KernelClass::Matrix1:
    case KernelClass::CtrlMatrix1:
    case KernelClass::Matrix2:
    case KernelClass::MatrixK:
      multiplies = counter_amps;
      break;
    default:
      break;
  }
  const double touched =
      counter_amps / static_cast<double>(pow2(counter_bits)) * active;
  return touched * (multiplies + 1.0);
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
  PreparedGate<T> pg;
  pg.cls = classify_gate(g);
  pg.qubits = g.qubits;
  require(pg.cls != KernelClass::Unsupported,
          "prepare_gate: MEASURE/RESET have no unitary kernel");

  // Sorted operand positions + masks (used by the gather-style kernels).
  pg.sorted = g.qubits;
  std::sort(pg.sorted.begin(), pg.sorted.end());
  for (unsigned q : g.qubits) pg.mask |= pow2(q);
  for (unsigned c : g.controls()) pg.cmask |= pow2(c);
  const auto targets = g.targets();
  pg.target = targets.empty() ? 0 : targets[0];

  // Counter space: the 1-target and gather classes skip every operand bit;
  // the per-amplitude diagonal classes skip none.
  const unsigned k = static_cast<unsigned>(pg.sorted.size());
  pg.counter_bits = k;
  pg.counter_amps = 2;
  switch (pg.cls) {
    case KernelClass::Nop:
      pg.counter_bits = 0;
      pg.counter_amps = 0;
      break;
    case KernelClass::PermX:
    case KernelClass::PermY:
    case KernelClass::PermSwap:
    case KernelClass::Mcx:
    case KernelClass::Hadamard:
      break;
    case KernelClass::Diag1: {
      const qc::Matrix u = g.matrix();
      pg.coeff = {detail::cast_c<T>(u(0, 0)), detail::cast_c<T>(u(1, 1))};
      break;
    }
    case KernelClass::CtrlDiag1: {
      const qc::Matrix u = g.target_matrix();
      pg.coeff = {detail::cast_c<T>(u(0, 0)), detail::cast_c<T>(u(1, 1))};
      break;
    }
    case KernelClass::McPhase: {
      const qc::Matrix u = g.target_matrix();
      pg.coeff = {detail::cast_c<T>(u(1, 1))};
      pg.counter_amps = 1;
      break;
    }
    case KernelClass::Matrix1:
      pg.coeff = cast_matrix<T>(g.kind == GateKind::UNITARY
                                    ? g.matrix_payload()
                                    : g.matrix());
      break;
    case KernelClass::CtrlMatrix1:
      pg.coeff = cast_matrix<T>(g.target_matrix());
      break;
    case KernelClass::Matrix2:
      pg.coeff = cast_matrix<T>(g.kind == GateKind::UNITARY
                                    ? g.matrix_payload()
                                    : g.matrix());
      pg.counter_amps = 4;
      break;
    case KernelClass::Diag2: {
      const qc::Matrix u = g.matrix();
      pg.coeff = {detail::cast_c<T>(u(0, 0)), detail::cast_c<T>(u(1, 1)),
                  detail::cast_c<T>(u(2, 2)), detail::cast_c<T>(u(3, 3))};
      pg.counter_bits = 0;
      pg.counter_amps = 1;
      break;
    }
    case KernelClass::DiagK: {
      const auto& d = g.diagonal_entries();
      pg.coeff.resize(d.size());
      for (std::size_t i = 0; i < d.size(); ++i)
        pg.coeff[i] = detail::cast_c<T>(d[i]);
      pg.counter_bits = 0;
      pg.counter_amps = 1;
      break;
    }
    case KernelClass::MatrixK: {
      require(k <= kMaxMatrixK, "prepare_gate: dense width too large");
      pg.coeff = cast_matrix<T>(g.kind == GateKind::UNITARY
                                    ? g.matrix_payload()
                                    : g.matrix());
      const std::uint64_t sub = pow2(k);
      pg.offs.resize(sub);
      for (std::uint64_t s = 0; s < sub; ++s)
        pg.offs[s] = scatter_bits(s, g.qubits);
      pg.counter_amps = static_cast<unsigned>(sub);
      break;
    }
    case KernelClass::Unsupported:
      break;  // unreachable (require above)
  }
  return pg;
}

template PreparedGate<float> prepare_gate<float>(const Gate&);
template PreparedGate<double> prepare_gate<double>(const Gate&);

}  // namespace svsim::sv
