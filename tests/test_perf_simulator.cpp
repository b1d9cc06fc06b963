#include "perf/perf_simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "qc/library.hpp"
#include "sv/plan.hpp"

namespace svsim::perf {
namespace {

using machine::Affinity;
using machine::ExecConfig;
using machine::MachineSpec;

const MachineSpec kA64fx = MachineSpec::a64fx();

/// Whole-circuit model: compiled without blocking (one phase per gate,
/// fused first when `fusion_width` > 0) and walked by cost_plan.
PlanCost model(const qc::Circuit& c, const MachineSpec& m,
               const ExecConfig& cfg = {}, unsigned fusion_width = 0) {
  sv::PlanOptions po;
  po.fusion = fusion_width > 0;
  if (po.fusion) po.fusion_width = fusion_width;
  return cost_plan(sv::compile_plan(c, po), m, cfg);
}

TEST(PerfSimulator, GateTimeIsPositiveAndBandwidthBounded) {
  ExecConfig cfg;
  const GateTiming t = time_gate(qc::Gate::h(10), 28, kA64fx, cfg);
  EXPECT_GT(t.seconds, 0.0);
  EXPECT_TRUE(t.memory_bound);  // SV 1q gates are always memory bound
  // Effective bandwidth cannot exceed STREAM.
  const double gbps = t.cost.bytes / t.seconds * 1e-9;
  EXPECT_LE(gbps, kA64fx.stream_bandwidth_gbps() * 1.001);
}

TEST(PerfSimulator, LargeStateGateTimeMatchesStreamEstimate) {
  // n=30 H gate: 2 x 16 GiB traffic over ~830 GB/s ≈ 41 ms.
  ExecConfig cfg;
  const GateTiming t = time_gate(qc::Gate::h(20), 30, kA64fx, cfg);
  const double expected =
      2.0 * 1024.0 * 1024.0 * 1024.0 * 16.0 / (830e9);
  EXPECT_NEAR(t.seconds, expected, expected * 0.05);
}

TEST(PerfSimulator, SmallStatesServedFromCacheAreFaster) {
  ExecConfig cfg;
  // Bytes/second for n=14 (256 KiB, L1-resident) vs n=26 (1 GiB, HBM).
  const GateTiming small = time_gate(qc::Gate::h(5), 14, kA64fx, cfg);
  const GateTiming large = time_gate(qc::Gate::h(5), 26, kA64fx, cfg);
  const double bw_small = small.cost.bytes / small.memory_seconds;
  const double bw_large = large.cost.bytes / large.memory_seconds;
  EXPECT_GT(bw_small, bw_large);
  EXPECT_EQ(small.serving_level, 0);
  EXPECT_EQ(large.serving_level, -1);
}

TEST(PerfSimulator, ForkJoinOverheadDominatesTinyStates) {
  ExecConfig cfg;  // 48 threads
  const GateTiming tiny = time_gate(qc::Gate::h(2), 10, kA64fx, cfg);
  EXPECT_GT(tiny.overhead_seconds,
            std::max(tiny.compute_seconds, tiny.memory_seconds));
}

TEST(PerfSimulator, ThreadScalingSaturates) {
  // Memory-bound kernel: speedup from 1 to 12 threads large, 12 to 48 = 4x
  // (one CMG to four), beyond that nothing.
  const unsigned n = 28;
  auto seconds_with = [&](unsigned threads) {
    ExecConfig cfg;
    cfg.threads = threads;
    return time_gate(qc::Gate::h(14), n, kA64fx, cfg).seconds;
  };
  const double t1 = seconds_with(1);
  const double t6 = seconds_with(6);
  const double t12 = seconds_with(12);
  const double t48 = seconds_with(48);
  EXPECT_GT(t1 / t6, 4.0);    // near-linear at first (40 GB/s/core)
  EXPECT_LT(t6 / t12, 1.5);   // CMG ceiling kicks in
  EXPECT_NEAR(t12 / t48, 4.0, 0.5);  // four CMGs
}

TEST(PerfSimulator, ScatterBeatsCompactForMemoryBoundMidCounts) {
  const unsigned n = 28;
  ExecConfig compact;
  compact.threads = 8;
  compact.affinity = Affinity::Compact;
  ExecConfig scatter = compact;
  scatter.affinity = Affinity::Scatter;
  const double tc = time_gate(qc::Gate::h(14), n, kA64fx, compact).seconds;
  const double ts = time_gate(qc::Gate::h(14), n, kA64fx, scatter).seconds;
  EXPECT_LT(ts, tc);
}

TEST(PerfSimulator, LowTargetQubitIsSlowerInCache) {
  // In the L1 regime the kernel is closer to compute limits, so the SIMD
  // penalty of target 0 shows up; in the HBM regime bandwidth hides it.
  ExecConfig cfg;
  const double t0 = time_gate(qc::Gate::rx(0, 0.5), 14, kA64fx, cfg).compute_seconds;
  const double t8 = time_gate(qc::Gate::rx(8, 0.5), 14, kA64fx, cfg).compute_seconds;
  EXPECT_GT(t0, t8);
}

TEST(PerfSimulator, CircuitReportAggregates) {
  const qc::Circuit c = qc::qft(20);
  const PlanCost r = model(c, kA64fx);
  EXPECT_EQ(r.num_gates, c.size());
  EXPECT_EQ(r.phases.size(), c.size());
  EXPECT_GT(r.compute_seconds, 0.0);
  EXPECT_GT(r.achieved_gflops(), 0.0);
  EXPECT_GT(r.achieved_bandwidth_gbps(), 0.0);
  // Sum of per-phase seconds equals the total; every phase names a kernel.
  double sum = 0.0;
  for (const PhaseCost& p : r.phases) {
    sum += p.seconds;
    EXPECT_STRNE(p.kernel, "");
    EXPECT_LE(p.compute_seconds, p.seconds);
  }
  EXPECT_NEAR(sum, r.compute_seconds, 1e-12);
}

TEST(CostPlan, UnblockedPlanCostsTheSumOfItsGateTimes) {
  // Without blocking every compiled gate is its own phase, so the plan
  // total is Σ time_gate over the gates, summed in plan order — the
  // per-gate circuit walk, bit for bit.
  const unsigned n = 16;
  const std::vector<qc::Circuit> circuits = {
      qc::qft(n), qc::random_quantum_volume(n, 6, 9),
      qc::qaoa_maxcut(n, qc::ring_graph(n), {0.8, 0.6}, {0.4, 0.3})};
  for (const qc::Circuit& c : circuits) {
    for (const bool fusion : {false, true}) {
      sv::PlanOptions po;
      po.fusion = fusion;
      po.fusion_width = 4;
      const sv::ExecutionPlan plan = sv::compile_plan(c, po);
      double seconds = 0.0;
      double flops = 0.0;
      for (const sv::PlanPhase& phase : plan.phases) {
        for (const qc::Gate& g : phase.gates) {
          const GateTiming t = time_gate(g, n, kA64fx, {});
          seconds += t.seconds;
          flops += t.cost.flops;
        }
      }
      const PlanCost cost = cost_plan(plan, kA64fx, {});
      EXPECT_EQ(cost.compute_seconds, seconds) << "fusion=" << fusion;
      EXPECT_EQ(cost.total_flops, flops) << "fusion=" << fusion;
      EXPECT_EQ(cost.phases.size(), plan.phases.size());
    }
  }
}

TEST(PerfSimulator, FusionReducesModeledTime) {
  const qc::Circuit c = qc::random_quantum_volume(24, 8, 5);
  ExecConfig cfg;
  const double t_plain = model(c, kA64fx, cfg).compute_seconds;
  const double t_fused = model(c, kA64fx, cfg, 4).compute_seconds;
  EXPECT_LT(t_fused, t_plain);
}

TEST(PerfSimulator, A64fxBeatsXeonOnBigStates) {
  // Memory-bound workload: 830 vs ~205 GB/s STREAM → ~4x.
  const qc::Circuit c = qc::qft(28);
  ExecConfig a64;
  ExecConfig xeon_cfg;
  const double t_a64 = model(c, kA64fx, a64).compute_seconds;
  const double t_xeon =
      model(c, MachineSpec::xeon_6148_dual(), xeon_cfg).compute_seconds;
  EXPECT_GT(t_xeon / t_a64, 2.5);
  EXPECT_LT(t_xeon / t_a64, 6.0);
}

TEST(PerfSimulator, VectorLengthMattersOnlyInCacheRegime) {
  // HBM regime: VL 128 vs 512 nearly identical (memory bound).
  auto time_with_vl = [&](unsigned vl, unsigned n, unsigned threads) {
    ExecConfig cfg;
    cfg.vector_bits = vl;
    cfg.threads = threads;
    return time_gate(qc::Gate::rx(8, 0.3), n, kA64fx, cfg).seconds;
  };
  const double hbm_128 = time_with_vl(128, 28, 48);
  const double hbm_512 = time_with_vl(512, 28, 48);
  EXPECT_NEAR(hbm_128 / hbm_512, 1.0, 0.05);
  // Cache regime (single thread avoids fork-join noise): shorter vectors
  // hurt because the kernel is compute-limited there.
  const double l2_128 = time_with_vl(128, 14, 1);
  const double l2_512 = time_with_vl(512, 14, 1);
  EXPECT_GT(l2_128 / l2_512, 1.5);
}

TEST(PerfSimulator, BoostModeSpeedsUpCacheResidentWork) {
  const qc::Circuit c = qc::qft(14);  // L1/L2-resident
  ExecConfig cfg;
  const double t_norm = model(c, kA64fx, cfg).compute_seconds;
  const double t_boost =
      model(c, MachineSpec::a64fx_boost(), cfg).compute_seconds;
  EXPECT_LT(t_boost, t_norm);
}

TEST(PerfSimulator, EcoModeBarelyHurtsMemoryBoundWork) {
  const qc::Circuit c = qc::qft(28);  // HBM-resident
  ExecConfig cfg;
  const double t_norm = model(c, kA64fx, cfg).compute_seconds;
  const double t_eco =
      model(c, MachineSpec::a64fx_eco(), cfg).compute_seconds;
  EXPECT_LT(t_eco / t_norm, 1.10);  // within 10%
}

}  // namespace
}  // namespace svsim::perf
