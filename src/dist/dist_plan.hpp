// Distributed plan compiler for multi-node state-vector simulation.
//
// With 2^d ranks, qubit *slots* [n-d, n) live in the rank index ("node
// slots") and slots [0, n-d) index the local partition. compile_distributed
// walks a circuit and lowers it into the shared ExecutionPlan IR
// (sv/plan.hpp), placing an Exchange phase wherever partner ranks must
// trade amplitudes:
//
//  * diagonal gates never communicate (each rank knows its rank bits);
//  * a control on a node slot is free (half the ranks apply the target op);
//  * a non-diagonal target on a node slot costs a pairwise exchange of the
//    local partition (half of it when a local control restricts the update,
//    or for a local<->node SWAP).
//
// Two schedulers are provided: `Naive` pays the exchange at every such gate;
// `Remap` instead swaps the offending logical qubit into a local slot
// (one half-exchange) and keeps a qubit->slot permutation, evicting the
// local qubit whose next use is farthest in the future (Belady). For
// QFT-like circuits that hammer the same high qubits this collapses the
// exchange count — the distributed-scaling experiment (Fig. 6) quantifies
// it. What each rank computes between exchanges is priced by
// perf::cost_plan and timed by dist::time_plan.
#pragma once

#include "qc/circuit.hpp"
#include "sv/plan.hpp"

namespace svsim::dist {

enum class CommScheduler { Naive, Remap };

const char* scheduler_name(CommScheduler s);

struct DistExecOptions {
  CommScheduler scheduler = CommScheduler::Remap;
  /// Scalar precision (8 = double; an amplitude is 2 * element_bytes).
  unsigned element_bytes = 8;
  /// Emit restore exchanges so the plan ends — and every MeasureFlush runs —
  /// under the identity qubit->slot layout. Required for amplitude
  /// execution; model-only studies may disable it.
  bool restore_layout = true;
  /// Fusion / sweep-blocking knobs forwarded to the window compiler. The
  /// block size is clamped to the local partition (block_qubits <=
  /// local_qubits), and auto sizing budgets against `plan.machine`.
  sv::PlanOptions plan;
};

/// Compiles `circuit` into the shared ExecutionPlan IR for 2^node_qubits
/// ranks: fusion -> Belady-style exchange placement -> sweep grouping per
/// exchange window. Gates in the result are in slot space; with the Remap
/// scheduler, Exchange phases carry the data-moving slot swaps, with Naive
/// they are cost-only markers. MEASURE/RESET compile into MeasureFlush
/// phases behind a layout restore. Requires at least 2 local qubits.
sv::ExecutionPlan compile_distributed(const qc::Circuit& circuit,
                                      unsigned node_qubits,
                                      const DistExecOptions& options = {});

}  // namespace svsim::dist
