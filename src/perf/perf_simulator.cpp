#include "perf/perf_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "machine/bandwidth_model.hpp"
#include "machine/roofline.hpp"

namespace svsim::perf {

using machine::ExecConfig;
using machine::MachineSpec;
using machine::Placement;

namespace {

/// Fork-join cost per parallel region: a base dispatch latency plus a
/// tree-barrier term in log2(threads). Calibrated to OpenMP-class barriers
/// (~1-2 µs at 48 threads).
double fork_join_seconds(unsigned threads) {
  if (threads <= 1) return 5.0e-8;
  return 4.0e-7 + 2.0e-7 * std::log2(static_cast<double>(threads));
}

}  // namespace

GateTiming time_gate(const qc::Gate& gate, unsigned num_qubits,
                     const MachineSpec& m, const ExecConfig& config) {
  const Placement p = machine::place_threads(m, config);
  const KernelCost cost = gate_cost(gate, num_qubits, m, config);

  GateTiming t;
  t.cost = cost;
  if (cost.bytes == 0.0 && cost.flops == 0.0) {
    // nop (barrier / identity)
    return t;
  }

  const double compute_roof =
      machine::placement_peak_gflops(m, p, config) * cost.simd_efficiency;
  t.compute_seconds =
      compute_roof > 0.0 ? cost.flops / (compute_roof * 1e9) : 0.0;

  t.serving_level = machine::serving_level(m, p, cost.footprint_bytes);
  const double bw =
      machine::effective_bandwidth_gbps(m, p, cost.footprint_bytes);
  t.memory_seconds = cost.bytes / (bw * 1e9);

  t.overhead_seconds = fork_join_seconds(p.total_threads());
  t.memory_bound = t.memory_seconds > t.compute_seconds;
  t.seconds =
      std::max(t.compute_seconds, t.memory_seconds) + t.overhead_seconds;
  return t;
}

namespace {

/// What one rank runs for a slot-space gate that keeps operands on node
/// slots (free controls, diagonals), as a gate on its own partition:
///  * a diagonal with every operand on node slots is a phase applied to the
///    whole partition (on the ranks whose bits match);
///  * a diagonal with some local operands is a diagonal on only those
///    local slots;
///  * any other gate keeps its arity, node-slot operands replaced by
///    scratch local slots.
qc::Gate localized_proxy(const qc::Gate& g, unsigned local_qubits) {
  const auto is_local = [local_qubits](unsigned q) { return q < local_qubits; };
  if (std::all_of(g.qubits.begin(), g.qubits.end(), is_local)) return g;

  std::vector<unsigned> local_slots;
  std::copy_if(g.qubits.begin(), g.qubits.end(),
               std::back_inserter(local_slots), is_local);

  if (g.is_diagonal() && g.kind != qc::GateKind::I) {
    if (local_slots.empty()) return qc::Gate::rz(0, 0.1);
    std::vector<qc::cplx> entries(
        pow2(static_cast<unsigned>(local_slots.size())), qc::cplx{1.0, 0.0});
    entries.back() = qc::cplx{0.0, 1.0};  // cost proxy values
    return qc::Gate::diag(std::move(local_slots), std::move(entries));
  }

  qc::Gate proxy = g;
  for (auto& q : proxy.qubits) {
    if (q < local_qubits) continue;
    for (unsigned s = local_qubits; s-- > 0;) {
      if (std::find(local_slots.begin(), local_slots.end(), s) ==
          local_slots.end()) {
        local_slots.push_back(s);
        q = s;
        break;
      }
    }
  }
  return proxy;
}

}  // namespace

PlanCost cost_plan(const sv::ExecutionPlan& plan, const MachineSpec& m,
                   const ExecConfig& config, const ExecutionContext& ctx) {
  obs::ScopedSpan span("cost_plan", obs::SpanCategory::Collective,
                       ctx.tracer());
  const Placement p = machine::place_threads(m, config);
  const unsigned ln = plan.local_qubits;
  const double amp_bytes = 2.0 * config.element_bytes;
  const double partition_bytes = static_cast<double>(pow2(ln)) * amp_bytes;
  const double compute_roof_gflops =
      machine::placement_peak_gflops(m, p, config);

  PlanCost r;
  r.machine_name = m.name;
  r.local_qubits = ln;
  r.block_qubits = plan.block_qubits;
  r.threads = p.total_threads();
  r.num_windows = plan.num_windows();
  r.num_gates = plan.total_gates();
  r.phases.reserve(plan.phases.size());

  for (const auto& phase : plan.phases) {
    PhaseCost pc;
    pc.kind = phase.kind;
    switch (phase.kind) {
      case sv::PhaseKind::LocalSweep: {
        const SweepCost sc =
            blocked_sweep_cost(phase.gates, ln, plan.block_qubits, m, config);
        // Flop time per gate under its own SIMD derating; one traversal of
        // DRAM traffic serves every gate in the sweep.
        double compute_seconds = 0.0;
        for (const auto& g : phase.gates) {
          const KernelCost kc = gate_cost(g, ln, m, config);
          const double roof = compute_roof_gflops * kc.simd_efficiency;
          if (roof > 0.0) compute_seconds += kc.flops / (roof * 1e9);
        }
        const double bw =
            machine::effective_bandwidth_gbps(m, p, partition_bytes);
        const double memory_seconds = sc.dram_bytes / (bw * 1e9);
        pc.kernel = sv::phase_kind_name(phase.kind);
        pc.seconds = std::max(compute_seconds, memory_seconds) +
                     fork_join_seconds(p.total_threads());
        pc.compute_seconds = compute_seconds;
        pc.flops = sc.flops;
        pc.bytes = sc.dram_bytes;
        ++r.traversals;
        break;
      }
      case sv::PhaseKind::DenseGate:
      case sv::PhaseKind::MeasureFlush: {
        for (const auto& g : phase.gates) {
          const GateTiming t = time_gate(localized_proxy(g, ln), ln, m, config);
          pc.kernel = t.cost.kernel;  // MEASURE and RESET share "measure"
          pc.seconds += t.seconds;
          pc.compute_seconds += t.compute_seconds;
          pc.flops += t.cost.flops;
          pc.bytes += t.cost.bytes;
          if (t.cost.flops > 0.0 || t.cost.bytes > 0.0) ++r.traversals;
        }
        break;
      }
      case sv::PhaseKind::Exchange: {
        pc.kernel = sv::phase_kind_name(phase.kind);
        pc.exchange_bytes = phase.exchange_bytes();
        r.num_exchanges += phase.hops.size();
        r.exchange_bytes_per_rank += pc.exchange_bytes;
        break;
      }
    }
    r.compute_seconds += pc.seconds;
    r.total_flops += pc.flops;
    r.total_bytes += pc.bytes;
    r.phases.push_back(pc);
  }
  ctx.metrics().counter("perf.plan_cost_evals").increment();
  return r;
}

}  // namespace svsim::perf
