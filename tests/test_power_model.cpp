#include "perf/power_model.hpp"

#include <gtest/gtest.h>

#include "qc/library.hpp"
#include "sv/plan.hpp"

namespace svsim::perf {
namespace {

using machine::ExecConfig;
using machine::MachineSpec;

/// Power of `c` on `m`: the plan compiled without blocking (fused first
/// when `fusion_width` > 0), costed by cost_plan, then read by the model.
PowerReport power_of(const qc::Circuit& c, const MachineSpec& m,
                     const ExecConfig& cfg, unsigned fusion_width = 0) {
  sv::PlanOptions po;
  po.fusion = fusion_width > 0;
  if (po.fusion) po.fusion_width = fusion_width;
  return estimate_power(cost_plan(sv::compile_plan(c, po), m, cfg), m);
}

TEST(PowerModel, PositiveAndAboveIdle) {
  const qc::Circuit c = qc::qft(24);
  const MachineSpec m = MachineSpec::a64fx();
  ExecConfig cfg;
  const PowerReport p = power_of(c, m, cfg);
  EXPECT_GT(p.seconds, 0.0);
  EXPECT_GT(p.average_watts, m.idle_watts);
  EXPECT_NEAR(p.joules, p.average_watts * p.seconds, p.joules * 1e-9);
  EXPECT_GT(p.energy_delay_product(), 0.0);
}

TEST(PowerModel, NodePowerInPlausibleA64fxRange) {
  // A64FX nodes run roughly 100-200 W under load.
  const qc::Circuit c = qc::qft(26);
  const PowerReport p = power_of(c, MachineSpec::a64fx(), {});
  EXPECT_GT(p.average_watts, 90.0);
  EXPECT_LT(p.average_watts, 220.0);
}

TEST(PowerModel, BoostCalibration) {
  // The authors' published boost-mode observation on CPU-bound work:
  // ~10% faster at ~15-20% more power. Use a cache-resident circuit.
  const qc::Circuit c = qc::random_quantum_volume(20, 20, 3);
  ExecConfig cfg;
  // Fusion width 5 pushes arithmetic intensity up: compute-bound.
  const PowerReport normal = power_of(c, MachineSpec::a64fx(), cfg, 5);
  const PowerReport boost =
      power_of(c, MachineSpec::a64fx_boost(), cfg, 5);
  const double speedup = normal.seconds / boost.seconds;
  const double power_ratio = boost.average_watts / normal.average_watts;
  EXPECT_NEAR(speedup, 1.10, 0.02);
  EXPECT_GT(power_ratio, 1.08);
  EXPECT_LT(power_ratio, 1.30);
}

TEST(PowerModel, EcoSavesEnergyOnMemoryBoundWork) {
  // Memory-bound: eco costs almost no time but cuts core power.
  const qc::Circuit c = qc::qft(27);
  const PowerReport normal = power_of(c, MachineSpec::a64fx(), {});
  const PowerReport eco = power_of(c, MachineSpec::a64fx_eco(), {});
  EXPECT_LT(eco.seconds / normal.seconds, 1.10);
  EXPECT_LT(eco.average_watts, normal.average_watts * 0.92);
  EXPECT_LT(eco.joules, normal.joules);
}

TEST(PowerModel, BoostWastesEnergyOnMemoryBoundWork) {
  // Boost on a bandwidth-bound circuit: little speedup, more power ->
  // worse energy.
  const qc::Circuit c = qc::qft(27);
  const PowerReport normal = power_of(c, MachineSpec::a64fx(), {});
  const PowerReport boost = power_of(c, MachineSpec::a64fx_boost(), {});
  EXPECT_GT(boost.joules, normal.joules * 0.98);
}

TEST(PowerModel, FewerCoresLessPower) {
  const qc::Circuit c = qc::qft(24);
  ExecConfig few;
  few.threads = 12;
  ExecConfig all;
  const PowerReport p12 =
      power_of(c, MachineSpec::a64fx(), few);
  const PowerReport p48 =
      power_of(c, MachineSpec::a64fx(), all);
  EXPECT_LT(p12.average_watts, p48.average_watts);
}

TEST(PowerModel, EmptyCircuitGivesIdle) {
  qc::Circuit c(2);
  c.barrier();
  const PowerReport p = power_of(c, MachineSpec::a64fx(), {});
  EXPECT_DOUBLE_EQ(p.average_watts, MachineSpec::a64fx().idle_watts);
  EXPECT_DOUBLE_EQ(p.joules, 0.0);
}

}  // namespace
}  // namespace svsim::perf
