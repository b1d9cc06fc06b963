// First-principles performance model over the ExecutionPlan IR.
//
// `time_gate` derives one gate's cost profile (kernel_model), resolves the
// thread placement and serving memory level (machine models), and prices
//
//   gate time = max(flop time under the derated compute roof,
//                   traffic / effective bandwidth) + fork-join overhead.
//
// `cost_plan` walks a compiled plan (sv::compile_plan or
// dist::compile_distributed) phase by phase: DenseGate and MeasureFlush
// phases sum `time_gate` over their gates, a LocalSweep phase is one
// traversal of the partition carrying all of its gates, and Exchange
// phases report bytes for the interconnect model. A whole-circuit
// projection is `cost_plan(compile_plan(circuit, {fusion, width}), m,
// config)`; without blocking every gate is its own phase, so the plan
// total is Σ time_gate over the compiled gates.
//
// The absolute numbers are model estimates; the point — as in the paper's
// class of analysis — is the *shape*: regime transitions over target qubit
// and register size, thread/affinity scaling, vector-length sensitivity,
// fusion payoff, and cross-machine ranking.
#pragma once

#include <string>
#include <vector>

#include "machine/exec_config.hpp"
#include "machine/machine_spec.hpp"
#include "obs/context.hpp"
#include "perf/kernel_model.hpp"
#include "qc/circuit.hpp"
#include "sv/plan.hpp"

namespace svsim::perf {

struct GateTiming {
  KernelCost cost;
  double seconds = 0.0;
  double compute_seconds = 0.0;
  double memory_seconds = 0.0;
  double overhead_seconds = 0.0;
  bool memory_bound = false;
  int serving_level = -1;  ///< cache index or -1 = memory
};

/// Models one gate on `m` under `config` for an n-qubit register.
GateTiming time_gate(const qc::Gate& gate, unsigned num_qubits,
                     const machine::MachineSpec& m,
                     const machine::ExecConfig& config);

/// Modeled cost of one ExecutionPlan phase. `seconds` is the local compute
/// time on a single rank's 2^local_qubits partition (zero for Exchange
/// phases, whose cost lives in `exchange_bytes` and is priced by the
/// caller's interconnect model).
struct PhaseCost {
  sv::PhaseKind kind = sv::PhaseKind::DenseGate;
  /// Kernel class for reporting (static string): the gate's kernel_model
  /// class for a DenseGate phase ("measure" for MeasureFlush), the phase
  /// kind name for LocalSweep and Exchange phases.
  const char* kernel = "";
  double seconds = 0.0;
  /// The part of `seconds` the cores spend computing (flop time under the
  /// derated compute roof) rather than stalled on memory; the power model
  /// reads it as core utilization.
  double compute_seconds = 0.0;
  double flops = 0.0;
  double bytes = 0.0;           ///< modeled local DRAM/cache traffic
  double exchange_bytes = 0.0;  ///< per rank, one direction (Exchange only)
};

/// Plan-level roll-up of the first-principles model: what one rank computes
/// between exchanges. A LocalSweep phase is priced as one state traversal
/// (blocked_sweep_cost) regardless of how many gates it carries — this is
/// where the traversals-saved-between-exchanges payoff shows up against a
/// per-gate plan.
struct PlanCost {
  std::string machine_name;
  unsigned local_qubits = 0;
  unsigned block_qubits = 0;
  unsigned threads = 0;
  double compute_seconds = 0.0;
  double total_flops = 0.0;
  double total_bytes = 0.0;
  std::size_t traversals = 0;
  std::size_t num_windows = 0;
  std::size_t num_exchanges = 0;
  std::size_t num_gates = 0;
  double exchange_bytes_per_rank = 0.0;
  std::vector<PhaseCost> phases;  ///< one entry per plan phase, in order

  double gates_per_traversal() const noexcept {
    return traversals > 0
               ? static_cast<double>(num_gates) /
                     static_cast<double>(traversals)
               : 0.0;
  }
  double achieved_gflops() const noexcept {
    return compute_seconds > 0.0 ? total_flops / compute_seconds * 1e-9 : 0.0;
  }
  double achieved_bandwidth_gbps() const noexcept {
    return compute_seconds > 0.0 ? total_bytes / compute_seconds * 1e-9 : 0.0;
  }
};

/// Costs every phase of `plan` on machine `m` under `config`. Gates with
/// operands on node slots (free controls, diagonals) are priced as the gate
/// the busiest rank runs on its partition: a whole-partition phase for a
/// diagonal with only node-slot operands, a diagonal on the local slots for
/// a mixed one, and the gate on scratch local slots otherwise.
/// Publishes the `perf.plan_cost_evals` counter and its model span through
/// `ctx` (default: the process-wide singletons).
PlanCost cost_plan(const sv::ExecutionPlan& plan, const machine::MachineSpec& m,
                   const machine::ExecConfig& config,
                   const ExecutionContext& ctx = ExecutionContext::global());

}  // namespace svsim::perf
