#include "perf/report.hpp"

#include <algorithm>
#include <map>

#include "perf/profile_report.hpp"

namespace svsim::perf {

Table summary_table(const PlanCost& cost) {
  Table t("Performance summary — " + cost.machine_name,
          {"qubits", "threads", "gates", "seconds", "GFLOP/s", "GB/s"});
  t.add_row({static_cast<std::int64_t>(cost.local_qubits),
             static_cast<std::int64_t>(cost.threads),
             static_cast<std::int64_t>(cost.num_gates), cost.compute_seconds,
             cost.achieved_gflops(), cost.achieved_bandwidth_gbps()});
  return t;
}

Table kernel_breakdown_table(const PlanCost& cost) {
  Table t("Time by kernel class — " + cost.machine_name,
          {"kernel", "seconds", "share"});
  std::map<std::string, double> by_kernel;
  for (const PhaseCost& phase : cost.phases)
    if (phase.kind != sv::PhaseKind::Exchange)
      by_kernel[phase.kernel] += phase.seconds;
  std::vector<std::pair<std::string, double>> rows(by_kernel.begin(),
                                                   by_kernel.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [kernel, seconds] : rows) {
    t.add_row({kernel, seconds,
               cost.compute_seconds > 0.0 ? seconds / cost.compute_seconds
                                          : 0.0});
  }
  return t;
}

Table trace_table(const PlanCost& cost, std::size_t max_rows) {
  Table t("Phase trace — " + cost.machine_name,
          {"phase", "kind", "kernel", "us", "GB/s"});
  const std::size_t rows = std::min(cost.phases.size(), max_rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const PhaseCost& p = cost.phases[i];
    t.add_row({static_cast<std::int64_t>(i),
               std::string(sv::phase_kind_name(p.kind)), std::string(p.kernel),
               p.seconds * 1e6,
               p.seconds > 0.0 ? p.bytes / p.seconds * 1e-9 : 0.0});
  }
  return t;
}

Table power_table(
    const std::vector<std::pair<std::string, PowerReport>>& runs) {
  Table t("Power comparison",
          {"configuration", "seconds", "watts", "joules", "EDP_Js"});
  for (const auto& [label, p] : runs) {
    t.add_row({label, p.seconds, p.average_watts, p.joules,
               p.energy_delay_product()});
  }
  return t;
}

Table drift_phase_table(const ProfileReport& report) {
  struct Agg {
    std::size_t phases = 0;
    std::size_t gates = 0;
    double measured = 0.0;
    double modeled = 0.0;
    double bytes = 0.0;
  };
  // Keyed by (kind, kernel): the kernel part is empty except for DenseGate
  // phases, so rows stay in phase-kind order with kernels sorted within.
  std::map<std::pair<sv::PhaseKind, std::string>, Agg> by_key;
  for (const PhaseProfile& p : report.phases) {
    Agg& a = by_key[{p.kind, p.kind == sv::PhaseKind::DenseGate
                                 ? std::string(p.kernel)
                                 : std::string()}];
    ++a.phases;
    a.gates += p.gates;
    a.measured += p.measured_seconds;
    a.modeled += p.modeled_seconds;
    a.bytes += p.measured_bytes;
  }
  std::string title = "Drift by plan phase";
  if (report.partial) title += " (PARTIAL: tracer rings overflowed)";
  Table t(title, {"phase", "count", "gates", "measured_ms", "modeled_ms",
                  "ratio", "measured_GBs"});
  for (const auto& [key, a] : by_key) {
    std::string label = sv::phase_kind_name(key.first);
    if (!key.second.empty()) label += "/" + key.second;
    t.add_row({std::move(label),
               static_cast<std::int64_t>(a.phases),
               static_cast<std::int64_t>(a.gates), a.measured * 1e3,
               a.modeled * 1e3, a.modeled > 0.0 ? a.measured / a.modeled : 0.0,
               a.measured > 0.0 ? a.bytes / a.measured * 1e-9 : 0.0});
  }
  t.add_row({std::string("TOTAL"),
             static_cast<std::int64_t>(report.phases.size()), std::int64_t{0},
             report.measured_seconds * 1e3, report.modeled_seconds * 1e3,
             report.drift_ratio(),
             report.measured_seconds > 0.0
                 ? report.measured_bytes / report.measured_seconds * 1e-9
                 : 0.0});
  return t;
}

}  // namespace svsim::perf
