// Shared helpers for benchmark cases.
//
// Each translation unit in bench/ registers one or more benchmark cases
// (SVSIM_BENCH) reproducing a table or figure of the reconstructed
// evaluation (see DESIGN.md); the unified `svsim_bench` runner executes
// them. Two kinds of numbers appear side by side:
//   measured  — real kernel executions on the build host, sampled by the
//               statistical engine (obs/bench/stats.hpp);
//   model     — the analytical A64FX/Xeon/ThunderX2 performance simulator.
// Absolute host numbers depend on the machine running this; the model
// columns are the paper-facing result.
#pragma once

#include <string>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "machine/machine_spec.hpp"
#include "obs/bench/env.hpp"
#include "obs/bench/registry.hpp"
#include "perf/perf_simulator.hpp"
#include "qc/circuit.hpp"
#include "qc/gate.hpp"
#include "sv/plan.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"

namespace svsim {

// Case bodies live inside `using namespace svsim;` translation units; hoist
// the context type so `BenchContext::MeasureOpts` reads naturally there.
using obs::bench::BenchContext;

}  // namespace svsim

namespace svsim::bench {

using obs::bench::BenchContext;

/// Spreads amplitude mass (H on qubit 0) so kernels do representative work
/// instead of streaming a delta state.
template <typename T>
void spread_amplitudes(sv::StateVector<T>& state) {
  sv::apply_gate(state, qc::Gate::h(0));
}

/// Effective memory bandwidth of a measured gate application, given the
/// model's byte count for the gate (bytes moved / measured seconds).
inline double measured_bandwidth_gbps(double model_bytes, double seconds) {
  return seconds > 0.0 ? model_bytes / seconds * 1e-9 : 0.0;
}

/// The build host's machine description for model cross-checks. The clock
/// is probed from /proc/cpuinfo and `SVSIM_HOST_SPEC` overrides any of
/// cores/ghz/gbps (see obs/bench/env.hpp); only the *shape* of host-model
/// comparisons is meaningful on an uncontrolled machine.
inline machine::MachineSpec host_spec() { return obs::bench::host_spec(); }

/// Modeled cost of `circuit` on `m`: compiled without blocking (one phase
/// per gate, fused first when `fusion_width` > 0) and walked by
/// perf::cost_plan, so `compute_seconds` is Σ time_gate over the gates.
inline perf::PlanCost model_circuit(const qc::Circuit& circuit,
                                    const machine::MachineSpec& m,
                                    const machine::ExecConfig& config = {},
                                    unsigned fusion_width = 0) {
  sv::PlanOptions po;
  if (fusion_width > 0) {
    po.fusion = true;
    po.fusion_width = fusion_width;
  }
  return perf::cost_plan(sv::compile_plan(circuit, po), m, config);
}

/// Stable record sub-ID fragment: "<prefix><number>", e.g. sub("host.h.t", 4).
inline std::string sub(const std::string& prefix, unsigned long long v) {
  return prefix + std::to_string(v);
}

}  // namespace svsim::bench
