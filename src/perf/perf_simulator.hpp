// Execution-driven performance simulator.
//
// Walks a circuit gate by gate, derives each gate's cost profile
// (kernel_model), resolves the thread placement and serving memory level
// (machine models), and produces per-gate timings plus circuit aggregates:
//
//   gate time = max(flop time under the derated compute roof,
//                   traffic / effective bandwidth) + fork-join overhead.
//
// The absolute numbers are model estimates; the point — as in the paper's
// class of analysis — is the *shape*: regime transitions over target qubit
// and register size, thread/affinity scaling, vector-length sensitivity,
// fusion payoff, and cross-machine ranking.
#pragma once

#include <map>
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
  std::string gate;
  KernelCost cost;
  double seconds = 0.0;
  double compute_seconds = 0.0;
  double memory_seconds = 0.0;
  double overhead_seconds = 0.0;
  bool memory_bound = false;
  int serving_level = -1;  ///< cache index or -1 = memory
};

struct PerfOptions {
  bool fusion = false;
  unsigned fusion_width = 3;
  bool record_trace = false;
};

struct PerfReport {
  std::string machine_name;
  unsigned num_qubits = 0;
  unsigned threads = 0;
  double total_seconds = 0.0;
  double total_flops = 0.0;
  double total_bytes = 0.0;
  std::size_t num_gates = 0;
  std::map<std::string, double> seconds_by_kernel;
  std::vector<GateTiming> trace;  ///< filled iff record_trace

  double achieved_gflops() const noexcept {
    return total_seconds > 0.0 ? total_flops / total_seconds * 1e-9 : 0.0;
  }
  double achieved_bandwidth_gbps() const noexcept {
    return total_seconds > 0.0 ? total_bytes / total_seconds * 1e-9 : 0.0;
  }
};

/// Models one gate on `m` under `config` for an n-qubit register.
GateTiming time_gate(const qc::Gate& gate, unsigned num_qubits,
                     const machine::MachineSpec& m,
                     const machine::ExecConfig& config);

/// Models a whole circuit (optionally fused first).
PerfReport simulate_circuit(const qc::Circuit& circuit,
                            const machine::MachineSpec& m,
                            const machine::ExecConfig& config,
                            const PerfOptions& options = {});

/// Modeled cost of one ExecutionPlan phase. `seconds` is the local compute
/// time on a single rank's 2^local_qubits partition (zero for Exchange
/// phases, whose cost lives in `exchange_bytes` and is priced by the
/// caller's interconnect model).
struct PhaseCost {
  sv::PhaseKind kind = sv::PhaseKind::DenseGate;
  std::size_t gates = 0;
  double seconds = 0.0;
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
