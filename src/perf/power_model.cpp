#include "perf/power_model.hpp"

#include <algorithm>

namespace svsim::perf {

PowerReport estimate_power(const PlanCost& cost,
                           const machine::MachineSpec& m) {
  PowerReport report;
  for (const PhaseCost& phase : cost.phases) {
    if (phase.seconds <= 0.0) continue;
    // Utilization: fraction of the phase the cores spend computing (vs.
    // stalled on memory), floored at the stall draw.
    const double util =
        std::max(kStallPowerFloor, phase.compute_seconds / phase.seconds);
    const double phase_bw_gbps = phase.bytes / phase.seconds * 1e-9;
    const double watts = m.idle_watts + cost.threads * m.core_max_watts * util +
                         m.mem_watts_per_gbps * phase_bw_gbps;
    report.joules += watts * phase.seconds;
    report.seconds += phase.seconds;
  }
  report.average_watts =
      report.seconds > 0.0 ? report.joules / report.seconds : m.idle_watts;
  return report;
}

}  // namespace svsim::perf
