#include "sv/fusion.hpp"

#include <algorithm>
#include <optional>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qc/dense.hpp"
#include "sv/kernels.hpp"

namespace svsim::sv {

namespace {

using qc::Circuit;
using qc::Gate;
using qc::GateKind;
using qc::Matrix;
using qc::cplx;

/// A pending fusion group: gates plus their combined support, in first-seen
/// order (which becomes the local bit order of the fused gate), whether
/// every gate is diagonal, the product diagonal on the support when it is,
/// and the price of the gate flush() emits for it.
struct Group {
  std::vector<Gate> gates;
  std::vector<unsigned> support;
  bool diagonal = false;
  std::vector<cplx> entries;
  double price = 0.0;

  bool empty() const { return gates.empty(); }

  /// The support if `g` joined: the group's, then g's new qubits.
  std::vector<unsigned> support_with(const Gate& g) const {
    std::vector<unsigned> wider = support;
    for (unsigned q : g.qubits)
      if (std::find(wider.begin(), wider.end(), q) == wider.end())
        wider.push_back(q);
    return wider;
  }
};

/// Price of a gate's kernel work (sv::kernel_price).
double gate_price(const Gate& g) { return kernel_price(kernel_work(g)); }

/// Price of a dense UNITARY on k qubits. It does not depend on the matrix,
/// so a candidate merge is priced before its unitary is built.
double dense_price(std::size_t width) {
  return kernel_price(dense_work(static_cast<unsigned>(width)));
}

/// Diagonal of a diagonal gate (qubits[0] = LSB of the index).
std::vector<cplx> gate_diagonal(const Gate& g) {
  if (g.kind == GateKind::DIAG) return g.diagonal_entries();
  const Matrix m = g.matrix();
  std::vector<cplx> d(m.dim());
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = m(i, i);
  return d;
}

/// `entries` (a diagonal on a prefix of `wider`) times g's diagonal, as a
/// diagonal on `wider`.
std::vector<cplx> times_diagonal(const std::vector<cplx>& entries,
                                 const std::vector<unsigned>& wider,
                                 const Gate& g) {
  std::vector<unsigned> pos;
  for (unsigned q : g.qubits)
    pos.push_back(static_cast<unsigned>(
        std::find(wider.begin(), wider.end(), q) - wider.begin()));
  const std::vector<cplx> d = gate_diagonal(g);
  std::vector<cplx> out(pow2(static_cast<unsigned>(wider.size())));
  for (std::uint64_t i = 0; i < out.size(); ++i)
    out[i] = entries[i & (entries.size() - 1)] * d[gather_bits(i, pos)];
  return out;
}

/// Computes the fused unitary of a group: product of its gates embedded on
/// the group support, column by column via the dense reference (the group is
/// tiny, <= 2^6).
Matrix group_unitary(const Group& group) {
  const unsigned k = static_cast<unsigned>(group.support.size());
  const std::uint64_t dim = pow2(k);
  Matrix u(dim);
  std::vector<cplx> col(dim);
  // Remap each gate's qubits onto local indices once.
  std::vector<Gate> local_gates;
  local_gates.reserve(group.gates.size());
  for (const auto& g : group.gates) {
    Gate lg = g;
    for (auto& q : lg.qubits) {
      const auto it =
          std::find(group.support.begin(), group.support.end(), q);
      SVSIM_ASSERT(it != group.support.end());
      q = static_cast<unsigned>(it - group.support.begin());
    }
    local_gates.push_back(std::move(lg));
  }
  for (std::uint64_t kcol = 0; kcol < dim; ++kcol) {
    std::fill(col.begin(), col.end(), cplx{0.0, 0.0});
    col[kcol] = 1.0;
    for (const auto& lg : local_gates) qc::dense::apply_gate(col, lg, k);
    for (std::uint64_t r = 0; r < dim; ++r) u(r, kcol) = col[r];
  }
  return u;
}

/// Publishes the width of one emitted multi-gate block (1..6 qubits).
/// Handles resolve per call against the options' registry — caching them
/// in statics would pin whichever registry was seen first.
void observe_block_width(const FusionOptions& options, std::size_t width,
                         std::size_t gates_merged) {
  auto& registry = options.metrics != nullptr ? *options.metrics
                                              : obs::MetricsRegistry::global();
  registry.histogram("fusion.block_width", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0})
      .observe(static_cast<double>(width));
  registry.counter("fusion.blocks").increment();
  registry.counter("fusion.gates_merged").add(gates_merged);
}

void flush(Group& group, Circuit& out, const FusionOptions& options) {
  if (group.empty()) return;
  if (group.gates.size() == 1) {
    out.append(group.gates.front());
  } else {
    if (!group.diagonal)
      out.append(Gate::unitary(group.support, group_unitary(group)));
    else if (options.prefer_diagonal)
      out.append(Gate::diag(group.support, std::move(group.entries)));
    else
      out.append(
          Gate::unitary(group.support, Matrix::diagonal(group.entries)));
    observe_block_width(options, group.support.size(), group.gates.size());
  }
  group = Group{};
}

}  // namespace

Circuit fuse(const Circuit& circuit, const FusionOptions& options) {
  require(options.max_width >= 1 && options.max_width <= 6,
          "fusion max_width must be in 1..6");
  obs::ScopedSpan span("fuse", obs::SpanCategory::Fusion);
  Circuit out(circuit.num_qubits(), circuit.num_clbits());
  Group group;
  for (const auto& g : circuit.gates()) {
    if (!g.is_unitary_op() || g.kind == GateKind::I) {
      flush(group, out, options);
      if (g.kind != GateKind::I) out.append(g);
      continue;
    }
    if (g.num_qubits() > options.max_width) {
      // Too wide to ever fuse; flush and pass through.
      flush(group, out, options);
      out.append(g);
      continue;
    }
    const double price = gate_price(g);
    const bool diagonal = g.is_diagonal();
    // g joins when the group stays within the width cap and the merged
    // gate costs no more than the group and g apart (at a tie, one gate
    // does the same work in one pass instead of two). A non-diagonal gate
    // ends a diagonal group rather than densifying it.
    if (!group.empty() && !(group.diagonal && !diagonal)) {
      std::vector<unsigned> wider = group.support_with(g);
      if (wider.size() <= options.max_width) {
        std::vector<cplx> entries;
        double merged = 0.0;
        if (group.diagonal) {
          entries = times_diagonal(group.entries, wider, g);
          merged = gate_price(Gate::diag(wider, entries));
        } else {
          merged = dense_price(wider.size());
        }
        if (merged <= group.price + price) {
          group.gates.push_back(g);
          group.support = std::move(wider);
          group.entries = std::move(entries);
          group.price = merged;
          continue;
        }
      }
    }
    flush(group, out, options);
    group.gates = {g};
    group.support = g.qubits;
    group.diagonal = diagonal;
    if (diagonal) group.entries = gate_diagonal(g);
    group.price = price;
  }
  flush(group, out, options);
  return out;
}

}  // namespace svsim::sv
