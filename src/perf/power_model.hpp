// Power and energy estimation on top of a PlanCost.
//
// P(t) = idle + Σ_active cores (core_max_watts x utilization)
//             + mem_watts_per_gbps x achieved bandwidth,
// where utilization is each phase's compute fraction (memory-stalled cores
// still draw a floor fraction). Without blocking a plan holds one phase per
// gate, so this is the per-gate power walk. Calibrated so the A64FX
// boost/eco variants reproduce the authors' published relative effects
// (boost ≈ +10% perf / +17% power on compute-bound work; eco cuts power
// sharply on memory-bound work at little cost).
#pragma once

#include "machine/machine_spec.hpp"
#include "perf/perf_simulator.hpp"

namespace svsim::perf {

struct PowerReport {
  double average_watts = 0.0;
  double joules = 0.0;
  double seconds = 0.0;
  /// Energy-delay product (J·s) — the metric the power studies optimize.
  double energy_delay_product() const noexcept { return joules * seconds; }
};

/// Fraction of peak core power a memory-stalled core still draws.
inline constexpr double kStallPowerFloor = 0.35;

/// Estimates power from a plan's modeled cost on machine `m` (the machine
/// `cost` was priced for; its thread count is the active core count).
PowerReport estimate_power(const PlanCost& cost, const machine::MachineSpec& m);

}  // namespace svsim::perf
