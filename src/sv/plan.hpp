// ExecutionPlan: the shared IR behind dense, blocked, and distributed runs.
//
// A plan is an ordered list of phases compiled from a circuit:
//
//   LocalSweep   — k grouped gates, all operands below the block boundary,
//                  applied per cache block in one traversal of the local
//                  partition (sv/engine.hpp);
//   DenseGate    — one gate applied to the whole state (its kernel entry
//                  over the full counter range; operands anywhere below local_qubits, plus node-slot
//                  controls/diagonals which are free on the wire);
//   Exchange     — a qubit-remap collective window: pairwise partner
//                  exchanges that move node-slot qubits into local slots
//                  (or cost-only markers for the naive per-gate scheduler);
//   MeasureFlush — MEASURE/RESET gates, which need the Simulator's RNG and
//                  must observe the identity qubit->slot layout.
//
// Two compilers produce it: `compile_plan` for one node (fusion -> sweep
// grouping; zero Exchange phases) and `dist::compile_distributed`, the
// only distributed compiler (fusion -> naive or Belady-remap exchange
// placement -> sweep grouping per exchange window). Both group sweeps
// through `append_window_phases`; there is no second plan type.
// Every consumer walks this one IR and none keeps a private gate loop:
// sv::run_plan for amplitudes, perf::cost_plan for the first-principles
// model (and, through it, the power model and the `project` tables),
// dist::time_plan for modeled distributed time (BSP sums plus, with a
// straggler or timeline recorder, per-rank clocks), and
// perf::build_profile_report for the measured-vs-modeled join.
//
// Distributed plans express gates in *slot space*: operand q names the slot
// holding a logical qubit, slots [local_qubits, num_qubits) live in the
// node rank. Executed on a single in-memory state, a slot-space plan is
// amplitude-exact: an Exchange's slot swaps are real SWAP applications (the
// same data movement 2^node_qubits ranks would perform pairwise), and
// whole-state gate applications across the partition boundary reproduce what
// each rank computes on its 2^local_qubits amplitudes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "qc/circuit.hpp"
#include "sv/sweep.hpp"

namespace svsim::machine {
struct MachineSpec;
}

namespace svsim::obs {
class MetricsRegistry;
}

namespace svsim::sv {

enum class PhaseKind : std::uint8_t {
  LocalSweep,
  DenseGate,
  Exchange,
  MeasureFlush,
};

/// Stable lowercase name ("local_sweep", "dense_gate", "exchange",
/// "measure_flush") — the vocabulary of the --dump-plan JSON schema.
const char* phase_kind_name(PhaseKind kind);

/// One pairwise partner exchange inside an Exchange phase. For a data-moving
/// remap, (local_slot, node_slot) is the slot swap each rank performs with
/// the partner across `rank_bit`; for cost-only hops (naive scheduler) the
/// slots are not meaningful and the executor does not touch amplitudes —
/// see PlanPhase::moves_data.
struct ExchangeHop {
  unsigned local_slot = 0;  ///< destination slot, < local_qubits
  unsigned node_slot = 0;   ///< source slot, >= local_qubits
  int rank_bit = -1;        ///< partner = rank ^ (1 << rank_bit); -1 = none
  double bytes = 0.0;       ///< per rank, one direction
};

struct PlanPhase {
  PhaseKind kind = PhaseKind::DenseGate;
  /// LocalSweep: >= 1 block-local gates; DenseGate: exactly 1 gate;
  /// MeasureFlush: >= 1 MEASURE/RESET gates; Exchange: empty.
  std::vector<qc::Gate> gates;
  /// Exchange only: the pairwise hops of this collective window.
  std::vector<ExchangeHop> hops;
  /// Exchange only: true when the hops are slot swaps the amplitude
  /// executor must perform; false for cost-only exchange markers.
  bool moves_data = false;
  std::string note;

  double exchange_bytes() const noexcept {
    double total = 0.0;
    for (const auto& h : hops) total += h.bytes;
    return total;
  }
};

struct ExecutionPlan {
  unsigned num_qubits = 0;
  unsigned node_qubits = 0;   ///< d: log2(rank count); 0 = single node
  unsigned local_qubits = 0;  ///< num_qubits - node_qubits
  unsigned block_qubits = 0;  ///< 0 = no LocalSweep phases were planned
  unsigned num_clbits = 0;
  std::vector<PlanPhase> phases;
  /// slot_of[logical qubit] after the plan runs (identity unless a
  /// distributed compiler left the register permuted).
  std::vector<unsigned> final_slot_of;

  // Aggregates, recomputed by finalize().
  std::size_t sweep_gates = 0;    ///< gates inside LocalSweep phases
  std::size_t dense_gates = 0;    ///< non-free DenseGate gates
  std::size_t free_gates = 0;     ///< I / BARRIER DenseGate gates
  std::size_t measure_gates = 0;  ///< MEASURE / RESET gates
  std::size_t num_exchanges = 0;  ///< pairwise hops across Exchange phases
  double exchange_bytes_per_rank = 0.0;

  std::uint64_t num_ranks() const noexcept {
    return std::uint64_t{1} << node_qubits;
  }
  std::size_t total_gates() const noexcept {
    return sweep_gates + dense_gates + free_gates + measure_gates;
  }
  /// Maximal exchange-free runs of compute phases.
  std::size_t num_windows() const noexcept;
  /// Local-partition traversals the compute phases perform: one per
  /// LocalSweep, one per non-free DenseGate gate, one per measure.
  std::size_t traversals() const noexcept;
  /// Gates applied per traversal — the amortization the sweep engine buys.
  double gates_per_traversal() const noexcept;

  /// Compact plan identifier for diagnostics and artifacts:
  /// "q<num_qubits>r<ranks>b<block_qubits>p<phases>g<total_gates>".
  std::string summary_id() const;

  /// Recomputes the aggregate fields from the phases, defaults
  /// final_slot_of to identity when unset, and trims every phase, gate,
  /// hop and operand vector to capacity() == size().
  void finalize();

  /// Checks the IR invariants every executor relies on; throws Error:
  ///  * widths consistent, block_qubits <= local_qubits;
  ///  * no two adjacent Exchange phases;
  ///  * LocalSweep gates unitary with every operand below block_qubits;
  ///  * DenseGate phases hold exactly one unitary gate;
  ///  * MeasureFlush phases hold only MEASURE/RESET and observe the
  ///    identity slot layout (data-moving hops tracked through the plan);
  ///  * Exchange hops name a valid (local, node) slot pair and rank bit.
  void validate() const;
};

struct PlanOptions {
  /// Run the fusion pass before planning.
  bool fusion = false;
  unsigned fusion_width = 3;
  /// Group block-local gates into LocalSweep phases.
  bool blocking = false;
  /// Block size in qubits; 0 = auto from the cache budget.
  unsigned block_qubits = 0;
  /// Cache budget for auto block sizing. 0 = derive from `machine`
  /// (per-core share of its last-level cache) when given, else
  /// kDefaultCacheBytes (512 KiB).
  std::uint64_t cache_bytes = 0;
  /// Bytes per amplitude (16 = complex<double>, 8 = complex<float>).
  unsigned amp_bytes = 16;
  /// Upper bound on gates per LocalSweep (bounds prepared-gate storage;
  /// longer runs split, each split still amortizing one traversal).
  unsigned max_sweep_gates = 64;
  /// Auto block sizing keeps at least 2^min_free_qubits blocks when the
  /// register allows, so the per-block loop still parallelizes.
  unsigned min_free_qubits = 3;
  /// Machine whose cache topology sizes the blocks (borrowed; optional).
  const machine::MachineSpec* machine = nullptr;
  /// Registry compile telemetry (plan.compiles, fusion.*, sweep.*)
  /// publishes to (borrowed); nullptr = the process-wide registry. Set
  /// from ExecutionContext::metrics() when compiling under a per-context
  /// registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The cache budget auto block sizing will use under `options` (explicit
/// bytes > machine-derived per-core LLC share > 512 KiB fallback).
///
/// `SVSIM_CACHE_BUDGET=probed` swaps the machine-derived share for the
/// startup microprobe's measured figure (machine/cache_probe.hpp) when the
/// probe found a valid knee; `declared` (or unset) keeps the MachineSpec
/// description. Explicit `options.cache_bytes` always wins. Any other
/// value throws Error.
std::uint64_t plan_cache_budget(const PlanOptions& options);

/// Compiler building block shared with dist::compile_distributed: appends
/// the compute phases for one exchange-free window of slot-space gates.
/// With plan.block_qubits > 0, each run of consecutive block-local gates
/// (unitary, every operand below the block boundary) becomes one
/// LocalSweep phase of at most max_sweep_gates gates; every other gate is
/// its own DenseGate phase. Gates are never reordered. Publishes the
/// sweep.plans / sweep.blocked_gates / sweep.passthrough_gates counters.
void append_window_phases(ExecutionPlan& plan, std::vector<qc::Gate> gates,
                          const PlanOptions& options);

/// Publishes plan.* compile-side counters (plan.compiles/phases/windows/
/// exchanges/exchange_bytes) for a freshly compiled plan. `metrics` is the
/// destination registry; nullptr = the process-wide registry.
void note_plan_compiled(const ExecutionPlan& plan,
                        obs::MetricsRegistry* metrics = nullptr);

/// Compiles a circuit for single-node execution: fusion (optional) ->
/// sweep grouping per window between MEASURE/RESET flush points. The
/// result has zero Exchange phases and is equivalent to the circuit
/// gate-for-gate.
ExecutionPlan compile_plan(const qc::Circuit& circuit,
                           const PlanOptions& options);

/// Serializes a plan as the --dump-plan JSON document
/// (`scripts/check_schema.py plan` validates this shape).
void write_plan_json(const ExecutionPlan& plan, std::ostream& os);

}  // namespace svsim::sv
