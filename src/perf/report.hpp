// Rendering of performance-analysis results as tables.
//
// Thin formatting layer so the CLI, examples and benches print consistent
// output. Every table reads one of the plan-walking results: a PlanCost
// (perf::cost_plan) becomes a summary, a per-kernel breakdown and a phase
// listing; a ProfileReport (perf::build_profile_report, the one
// measured-vs-modeled join) becomes the per-phase drift section.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "perf/perf_simulator.hpp"
#include "perf/power_model.hpp"

namespace svsim::perf {

/// Summary line table: totals, achieved GFLOP/s and GB/s.
Table summary_table(const PlanCost& cost);

/// Per-kernel-class time breakdown (sorted by share, descending).
Table kernel_breakdown_table(const PlanCost& cost);

/// Per-phase listing in plan order, capped at `max_rows`.
Table trace_table(const PlanCost& cost, std::size_t max_rows = 32);

/// Power summary for labeled runs.
Table power_table(
    const std::vector<std::pair<std::string, PowerReport>>& runs);

struct ProfileReport;  // perf/profile_report.hpp

/// Model-vs-measured drift of a profiled run, aggregated per phase kind;
/// DenseGate phases are further split by kernel class ("dense_gate/h",
/// "dense_gate/cx", ...) so a per-gate run still shows which kernels the
/// model misprices. Title carries a PARTIAL marker when the profiled run
/// lost tracer spans.
Table drift_phase_table(const ProfileReport& report);

}  // namespace svsim::perf
