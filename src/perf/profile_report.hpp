// ProfileReport: the measured<->modeled join for one profiled plan run.
//
// The executor's profiler (obs/profile.hpp) records what each plan phase
// *did* — wall time, bytes, occupancy, counters. This layer joins those
// samples positionally against perf::cost_plan (sample i describes
// plan.phases[i], exactly the contract PlanCost::phases keeps) and places
// every phase on the machine's roofline, producing the report the paper's
// analysis style needs: measured vs modeled GB/s and GF/s per phase,
// per-phase drift ratios, and a top-N "where did the time go" attribution.
// The env block records the startup cache microprobe next to the
// MachineSpec-declared LLC share, so a mis-declared cache budget — which
// skews block sizing and therefore every LocalSweep row — is visible in
// the same artifact that would show its symptoms.
//
// The JSON artifact (`write_profile_json`) is the stable interface:
// `scripts/check_schema.py profile` validates it and CI uploads one from the
// smoke tier. The join lives in perf, not obs, because it needs sv (plans),
// machine (roofline), and this module's cost model — all above obs in the
// layering.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/table.hpp"
#include "machine/cache_probe.hpp"
#include "machine/exec_config.hpp"
#include "machine/machine_spec.hpp"
#include "machine/roofline.hpp"
#include "obs/profile.hpp"
#include "perf/perf_simulator.hpp"
#include "sv/plan.hpp"

namespace svsim::perf {

/// One plan phase, measured joined with modeled.
struct PhaseProfile {
  std::size_t index = 0;
  sv::PhaseKind kind = sv::PhaseKind::DenseGate;
  const char* kernel = "";  ///< cost_plan's kernel class (PhaseCost::kernel)
  std::size_t gates = 0;
  std::size_t hops = 0;

  double measured_seconds = 0.0;
  double modeled_seconds = 0.0;  ///< cost_plan local compute time
  double measured_bytes = 0.0;   ///< executor's streamed-bytes estimate
  double modeled_bytes = 0.0;    ///< cost_plan local traffic
  double flops = 0.0;            ///< modeled (the executor counts no flops)
  double exchange_bytes = 0.0;   ///< Exchange: per rank, one direction
  /// Exchange: simulated wire seconds (0 until dist::time_plan annotated).
  double sim_exchange_seconds = 0.0;
  double share = 0.0;  ///< of the run's summed measured phase time

  /// Roofline placement at the modeled AI (simd_efficiency 1.0 — the
  /// architectural ceiling; kernel-derated roofs live in kernel_model).
  machine::RooflinePlacement roofline;

  obs::HwCounterValues hw;
  std::uint64_t dropped_spans = 0;
  unsigned threads = 0;

  double measured_gbps() const noexcept {
    return measured_seconds > 0.0 ? measured_bytes / measured_seconds * 1e-9
                                  : 0.0;
  }
  double modeled_gbps() const noexcept {
    return modeled_seconds > 0.0 ? modeled_bytes / modeled_seconds * 1e-9
                                 : 0.0;
  }
  double measured_gflops() const noexcept {
    return measured_seconds > 0.0 ? flops / measured_seconds * 1e-9 : 0.0;
  }
  double modeled_gflops() const noexcept {
    return modeled_seconds > 0.0 ? flops / modeled_seconds * 1e-9 : 0.0;
  }
  /// measured / modeled seconds; 0 when the model predicts zero time.
  double drift_ratio() const noexcept {
    return modeled_seconds > 0.0 ? measured_seconds / modeled_seconds : 0.0;
  }
};

/// Where the run happened: machine/threads/widths plus the cache-budget
/// cross-check (declared LLC share vs startup microprobe).
struct ProfileEnv {
  std::string machine_name;
  unsigned threads = 0;
  unsigned num_qubits = 0;
  unsigned node_qubits = 0;
  unsigned local_qubits = 0;
  unsigned block_qubits = 0;
  std::string simd_isa;      ///< widest SIMD extension detected on the CPU
  std::string simd_backend;  ///< kernel backend active for this run
  unsigned simd_vector_bits = 0;  ///< backend width; 0 = scalar backend
  std::uint64_t ranks = 1;
  std::uint64_t declared_cache_budget_bytes = 0;
  std::uint64_t probed_cache_budget_bytes = 0;
  bool probe_valid = false;
  double cache_budget_disagreement = 0.0;
  /// True when probe and declaration disagree by more than
  /// machine::kCacheProbeWarnThreshold.
  bool cache_budget_warning = false;
};

struct ProfileReport {
  ProfileEnv env;
  double measured_seconds = 0.0;  ///< whole-run wall time
  double modeled_seconds = 0.0;   ///< cost_plan compute total
  double measured_bytes = 0.0;
  double modeled_bytes = 0.0;
  /// Tracer rings overflowed mid-run: span-derived data is incomplete
  /// (phase samples themselves are exact).
  bool partial = false;
  std::vector<PhaseProfile> phases;

  double drift_ratio() const noexcept {
    return modeled_seconds > 0.0 ? measured_seconds / modeled_seconds : 0.0;
  }
  /// Phases sorted by measured time, descending (the attribution order).
  std::vector<const PhaseProfile*> by_measured_time() const;
};

/// Joins one profiled run against its plan's cost model and roofline.
/// `run.phases` must describe `plan.phases` positionally (which is what
/// sv::run_plan emits); throws on a count mismatch. The embedded cost-model
/// evaluation and the `perf.profile_reports` counter resolve through `ctx`.
ProfileReport build_profile_report(const obs::RunProfile& run,
                                   const sv::ExecutionPlan& plan,
                                   const machine::MachineSpec& m,
                                   const machine::ExecConfig& config,
                                   const ExecutionContext& ctx =
                                       ExecutionContext::global());

/// The profile.json artifact (`scripts/check_schema.py profile` validates).
void write_profile_json(const ProfileReport& report, std::ostream& os);

/// Env block: machine, threads, widths, cache-budget cross-check.
Table profile_env_table(const ProfileReport& report);
/// Per-phase measured-vs-modeled listing in plan order.
Table profile_phase_table(const ProfileReport& report,
                          std::size_t max_rows = 32);
/// Top-N attribution: phases by measured time with cumulative share.
Table profile_attribution_table(const ProfileReport& report,
                                std::size_t top_n = 8);

}  // namespace svsim::perf
