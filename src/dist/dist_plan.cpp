#include "dist/dist_plan.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sv/fusion.hpp"
#include "sv/sweep.hpp"

namespace svsim::dist {

using qc::Circuit;
using qc::Gate;
using qc::GateKind;

const char* scheduler_name(CommScheduler s) {
  return s == CommScheduler::Naive ? "naive" : "remap";
}

namespace {

/// Next-use oracle: for each logical qubit, the ordered gate indices that
/// touch it; a per-qubit cursor advances as planning passes each gate.
class NextUse {
 public:
  NextUse(const Circuit& circuit) : uses_(circuit.num_qubits()),
                                    cursor_(circuit.num_qubits(), 0) {
    for (std::size_t i = 0; i < circuit.size(); ++i)
      for (unsigned q : circuit.gate(i).qubits)
        uses_[q].push_back(i);
  }

  /// First use of qubit q at or after gate index i (SIZE_MAX if none).
  std::size_t next(unsigned q, std::size_t i) {
    auto& c = cursor_[q];
    const auto& u = uses_[q];
    while (c < u.size() && u[c] < i) ++c;
    return c < u.size() ? u[c] : std::numeric_limits<std::size_t>::max();
  }

 private:
  std::vector<std::vector<std::size_t>> uses_;
  std::vector<std::size_t> cursor_;
};

/// The qubit->slot permutation the compiler maintains, with the Belady
/// eviction rule (evict the local occupant whose next use is farthest in
/// the future, never an operand of the gate being planned).
class SlotMap {
 public:
  SlotMap(unsigned num_qubits, unsigned local_qubits)
      : ln_(local_qubits), slot_of_(num_qubits), logical_at_(num_qubits) {
    for (unsigned q = 0; q < num_qubits; ++q) {
      slot_of_[q] = q;
      logical_at_[q] = q;
    }
  }

  unsigned slot_of(unsigned q) const { return slot_of_[q]; }
  unsigned logical_at(unsigned s) const { return logical_at_[s]; }
  bool is_local_slot(unsigned s) const { return s < ln_; }
  bool is_local(unsigned q) const { return slot_of_[q] < ln_; }
  const std::vector<unsigned>& slots() const { return slot_of_; }

  bool is_identity() const {
    for (unsigned q = 0; q < slot_of_.size(); ++q)
      if (slot_of_[q] != q) return false;
    return true;
  }

  /// Local slot whose occupant's next use past `gate_index` is farthest
  /// away; slots holding operands of `current` are never evicted.
  unsigned choose_eviction(const Gate& current, std::size_t gate_index,
                           NextUse& next_use) const {
    unsigned best_slot = std::numeric_limits<unsigned>::max();
    std::size_t best_next = 0;
    for (unsigned s = 0; s < ln_; ++s) {
      const unsigned occupant = logical_at_[s];
      if (std::find(current.qubits.begin(), current.qubits.end(), occupant) !=
          current.qubits.end())
        continue;  // operand of the current gate: not evictable
      const std::size_t nu = next_use.next(occupant, gate_index + 1);
      if (best_slot == std::numeric_limits<unsigned>::max() ||
          nu >= best_next) {
        best_next = nu;
        best_slot = s;
      }
    }
    require(best_slot != std::numeric_limits<unsigned>::max(),
            "compile_distributed: no evictable local slot");
    return best_slot;
  }

  void swap_slots(unsigned a, unsigned b) {
    std::swap(logical_at_[a], logical_at_[b]);
    slot_of_[logical_at_[a]] = a;
    slot_of_[logical_at_[b]] = b;
  }

 private:
  unsigned ln_;
  std::vector<unsigned> slot_of_;    ///< logical qubit -> slot
  std::vector<unsigned> logical_at_; ///< slot -> logical qubit
};

/// Bytes each rank exchanges (one direction) for a non-diagonal gate with
/// `node_targets` targets on node slots under the naive scheduler: one
/// full-duplex partition exchange per node-slot target, restricted by local
/// controls; a local<->node SWAP moves only the mismatched halves.
double naive_exchange_bytes(const Gate& g, std::size_t node_targets,
                            std::size_t total_targets,
                            unsigned local_controls, double partition_bytes) {
  double per_exchange =
      partition_bytes / static_cast<double>(pow2(local_controls));
  if (g.kind == GateKind::SWAP || g.kind == GateKind::CSWAP) {
    const bool one_side_local = node_targets == 1 && total_targets == 2;
    if (one_side_local) per_exchange /= 2.0;
  }
  return per_exchange * static_cast<double>(node_targets);
}

/// Compiles a circuit into the shared ExecutionPlan IR: remap decisions
/// become Exchange phases with slot-swap hops, and exchange-free windows go
/// to the sweep grouper.
class DistCompiler {
 public:
  DistCompiler(const Circuit& circuit, unsigned node_qubits,
               const DistExecOptions& options)
      : circuit_(circuit),
        options_(options),
        n_(circuit.num_qubits()),
        d_(node_qubits),
        ln_(n_ - node_qubits),
        partition_bytes_(static_cast<double>(pow2(ln_)) * 2.0 *
                         options.element_bytes),
        next_use_(circuit),
        map_(n_, ln_) {}

  sv::ExecutionPlan run(unsigned num_clbits) {
    plan_.num_qubits = n_;
    plan_.node_qubits = d_;
    plan_.local_qubits = ln_;
    plan_.num_clbits = num_clbits;
    if (options_.plan.blocking) {
      const unsigned b =
          options_.plan.block_qubits != 0
              ? options_.plan.block_qubits
              : sv::auto_block_qubits(ln_, sv::plan_cache_budget(options_.plan),
                                      options_.plan.amp_bytes,
                                      options_.plan.min_free_qubits);
      // Sweeps traverse the local partition; blocks never cross ranks.
      plan_.block_qubits = std::min(b, ln_);
    }

    for (std::size_t i = 0; i < circuit_.size(); ++i)
      compile_gate(i, circuit_.gate(i));
    flush_window();
    if (options_.restore_layout) emit_restore();

    plan_.final_slot_of = map_.slots();
    plan_.finalize();
    plan_.validate();
    sv::note_plan_compiled(plan_);
    return std::move(plan_);
  }

 private:
  Gate slot_mapped(const Gate& g) const {
    Gate mapped = g;
    for (auto& q : mapped.qubits) q = map_.slot_of(q);
    return mapped;
  }

  void flush_window() {
    if (window_.empty()) return;
    sv::append_window_phases(plan_, std::move(window_), options_.plan);
    window_.clear();
  }

  void push_exchange(sv::PlanPhase phase) {
    SVSIM_ASSERT(phase.kind == sv::PhaseKind::Exchange);
    if (phase.hops.empty()) return;
    plan_.phases.push_back(std::move(phase));
  }

  void add_hop(sv::PlanPhase& phase, unsigned local_slot, unsigned node_slot) {
    sv::ExchangeHop hop;
    hop.local_slot = local_slot;
    hop.node_slot = node_slot;
    hop.rank_bit = static_cast<int>(node_slot - ln_);
    hop.bytes = partition_bytes_ / 2.0;
    phase.hops.push_back(hop);
    map_.swap_slots(local_slot, node_slot);
  }

  /// Emits the Exchange phase that returns the register to the identity
  /// layout. Every hop is a local<->node slot swap: node-home qubits are
  /// parked first, then residual local cycles are resolved through a node
  /// slot acting as the exchange buffer (rank-local permutes would be free
  /// in a real machine, but modeling them as exchanges keeps the IR to one
  /// data-movement primitive and is conservative on cost).
  void emit_restore() {
    if (map_.is_identity()) return;
    sv::PlanPhase ex;
    ex.kind = sv::PhaseKind::Exchange;
    ex.moves_data = true;
    ex.note = "restore qubit layout";

    for (unsigned ns = ln_; ns < n_; ++ns) {
      while (map_.logical_at(ns) != ns) {
        const unsigned s = map_.slot_of(ns);
        if (map_.is_local_slot(s)) {
          add_hop(ex, s, ns);
        } else {
          add_hop(ex, 0, s);  // route through local slot 0
        }
      }
    }
    // Node slots all hold their own qubits now; fix local cycles through
    // node slot ln_ (it is restored between cycles, so hops stay valid).
    for (unsigned c = 0; c < ln_; ++c) {
      if (map_.logical_at(c) == c) continue;
      add_hop(ex, c, ln_);
      while (map_.logical_at(ln_) != ln_) {
        const unsigned waiting = map_.logical_at(ln_);
        add_hop(ex, waiting, ln_);
      }
    }
    push_exchange(std::move(ex));
  }

  void compile_gate(std::size_t i, const Gate& g) {
    if (g.kind == GateKind::MEASURE || g.kind == GateKind::RESET) {
      flush_window();
      emit_restore();  // stochastic collapse must see logical qubits
      if (plan_.phases.empty() ||
          plan_.phases.back().kind != sv::PhaseKind::MeasureFlush) {
        sv::PlanPhase flush;
        flush.kind = sv::PhaseKind::MeasureFlush;
        plan_.phases.push_back(std::move(flush));
      }
      plan_.phases.back().gates.push_back(g);
      return;
    }
    if (g.kind == GateKind::BARRIER || g.kind == GateKind::I) {
      window_.push_back(slot_mapped(g));
      return;
    }
    require(g.is_unitary_op(), "compile_distributed: unsupported operation");

    // Diagonal gates and node-slot controls are free on the wire; only a
    // non-diagonal *target* on a node slot needs the interconnect.
    if (!g.is_diagonal()) {
      std::vector<unsigned> node_targets;
      for (unsigned q : g.targets())
        if (!map_.is_local(q)) node_targets.push_back(q);

      if (!node_targets.empty()) {
        flush_window();
        sv::PlanPhase ex;
        ex.kind = sv::PhaseKind::Exchange;
        if (options_.scheduler == CommScheduler::Remap) {
          ex.moves_data = true;
          ex.note = "remap for " + std::string(g.name());
          for (unsigned q : node_targets) {
            const unsigned node_slot = map_.slot_of(q);
            const unsigned local_slot =
                map_.choose_eviction(g, i, next_use_);
            add_hop(ex, local_slot, node_slot);
          }
        } else {
          // Naive per-gate scheduler: the gate itself straddles the rank
          // boundary; the hop records cost only and the layout never moves.
          unsigned local_controls = 0;
          for (unsigned q : g.controls())
            if (map_.is_local(q)) ++local_controls;
          ex.moves_data = false;
          ex.note = "exchange for " + std::string(g.name());
          sv::ExchangeHop hop;
          hop.rank_bit = static_cast<int>(
              map_.slot_of(node_targets.front()) - ln_);
          hop.bytes = naive_exchange_bytes(g, node_targets.size(),
                                           g.targets().size(), local_controls,
                                           partition_bytes_);
          ex.hops.push_back(hop);
        }
        push_exchange(std::move(ex));
      }
    }
    window_.push_back(slot_mapped(g));
  }

  const Circuit& circuit_;
  const DistExecOptions& options_;
  unsigned n_, d_, ln_;
  double partition_bytes_;
  NextUse next_use_;
  SlotMap map_;
  std::vector<Gate> window_;
  sv::ExecutionPlan plan_;
};

}  // namespace

sv::ExecutionPlan compile_distributed(const Circuit& circuit,
                                      unsigned node_qubits,
                                      const DistExecOptions& options) {
  require(node_qubits < circuit.num_qubits(),
          "compile_distributed: node qubits must be fewer than total qubits");
  require(circuit.num_qubits() - node_qubits >= 2,
          "compile_distributed: need at least 2 local qubits");

  qc::Circuit fused_storage(1);
  const qc::Circuit* source = &circuit;
  if (options.plan.fusion) {
    sv::FusionOptions fo;
    fo.max_width = options.plan.fusion_width;
    fused_storage = sv::fuse(circuit, fo);
    source = &fused_storage;
  }

  DistCompiler compiler(*source, node_qubits, options);
  return compiler.run(circuit.num_clbits());
}

}  // namespace svsim::dist
