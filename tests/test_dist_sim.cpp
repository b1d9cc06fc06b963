#include "dist/dist_sim.hpp"

#include <gtest/gtest.h>

#include "qc/library.hpp"

namespace svsim::dist {
namespace {

using machine::ExecConfig;
using machine::MachineSpec;

const MachineSpec kA64fx = MachineSpec::a64fx();
const InterconnectSpec kTofu = InterconnectSpec::tofu_d();

/// Model-only distributed plan: no layout-restore epilogue.
sv::ExecutionPlan compile(const qc::Circuit& c, unsigned node_qubits,
                          CommScheduler scheduler) {
  DistExecOptions o;
  o.scheduler = scheduler;
  o.restore_layout = false;
  return compile_distributed(c, node_qubits, o);
}

TEST(Interconnect, ExchangeTimeIsLatencyPlusTransfer) {
  const InterconnectSpec t = InterconnectSpec::tofu_d();
  const double small = t.pairwise_exchange_seconds(0.0);
  EXPECT_NEAR(small, t.latency_seconds + t.software_overhead_seconds, 1e-12);
  // 1 GiB over 4 x 6.8 GB/s ≈ 39 ms.
  const double big = t.pairwise_exchange_seconds(1024.0 * 1024.0 * 1024.0);
  EXPECT_NEAR(big, 1073741824.0 / (4 * 6.8e9), big * 0.01);
}

TEST(Interconnect, EdrSlowerThanTofuForLargeMessages) {
  const double bytes = 1e9;
  EXPECT_GT(InterconnectSpec::infiniband_edr().pairwise_exchange_seconds(bytes),
            InterconnectSpec::tofu_d().pairwise_exchange_seconds(bytes));
}

TEST(DistSim, LocalOnlyCircuitHasNoCommTime) {
  qc::Circuit c(20);
  c.h(0).cx(1, 2).rz(3, 0.4);
  const sv::ExecutionPlan plan = compile(c, 4, CommScheduler::Naive);
  const DistTiming t = time_plan(plan, kA64fx, {}, kTofu);
  EXPECT_DOUBLE_EQ(t.comm_seconds, 0.0);
  EXPECT_GT(t.compute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(t.total_seconds, t.compute_seconds);
}

TEST(DistSim, CommDominatesForNodeHeavyCircuit) {
  // Hammer a node qubit: exchange of the 2^24 partition each time.
  qc::Circuit c(28);
  for (int i = 0; i < 10; ++i) c.h(27);
  const sv::ExecutionPlan plan = compile(c, 4, CommScheduler::Naive);
  const DistTiming t = time_plan(plan, kA64fx, {}, kTofu);
  EXPECT_GT(t.comm_seconds, t.compute_seconds);
  EXPECT_EQ(t.num_exchanges, 10u);
}

TEST(DistSim, PipelinedBoundIsMaxOfStreams) {
  const qc::Circuit c = qc::qft(24);
  const sv::ExecutionPlan plan = compile(c, 3, CommScheduler::Naive);
  const DistTiming t = time_plan(plan, kA64fx, {}, kTofu);
  EXPECT_DOUBLE_EQ(t.pipelined_seconds,
                   std::max(t.compute_seconds, t.comm_seconds));
  EXPECT_LE(t.pipelined_seconds, t.total_seconds);
}

TEST(DistSim, RemapReducesTotalTimeOnQft) {
  const qc::Circuit c = qc::qft(26);
  const sv::ExecutionPlan naive = compile(c, 4, CommScheduler::Naive);
  const sv::ExecutionPlan remap = compile(c, 4, CommScheduler::Remap);
  const DistTiming tn = time_plan(naive, kA64fx, {}, kTofu);
  const DistTiming tr = time_plan(remap, kA64fx, {}, kTofu);
  EXPECT_LT(tr.comm_seconds, tn.comm_seconds);
}

TEST(DistSim, EventDrivenMatchesBspWithoutStraggler) {
  const qc::Circuit c = qc::qft(16);
  const sv::ExecutionPlan plan = compile(c, 3, CommScheduler::Naive);
  const DistTiming bsp = time_plan(plan, kA64fx, {}, kTofu);
  // Without a straggler or recorder the clocks do not run: zero skew.
  EXPECT_EQ(bsp.makespan_seconds, bsp.total_seconds);
  // A straggler slowed by 1.0 runs the per-rank clocks without skewing
  // them; the rendezvous walk lands on the BSP total.
  StragglerConfig s;
  s.node = 5;
  const DistTiming clocked = time_plan(plan, kA64fx, {}, kTofu, s);
  EXPECT_NEAR(clocked.makespan_seconds, bsp.total_seconds,
              bsp.total_seconds * 1e-9);
  EXPECT_EQ(clocked.total_seconds, bsp.total_seconds);
}

TEST(DistSim, StragglerDelayPropagatesThroughExchanges) {
  const qc::Circuit c = qc::qft(16);
  const sv::ExecutionPlan plan = compile(c, 3, CommScheduler::Naive);
  ASSERT_GT(plan.num_exchanges, 0u);
  const double clean = time_plan(plan, kA64fx, {}, kTofu).makespan_seconds;
  StragglerConfig s;
  s.node = 5;
  s.slowdown = 3.0;
  const double slowed =
      time_plan(plan, kA64fx, {}, kTofu, s).makespan_seconds;
  EXPECT_GT(slowed, clean);
  // The whole machine ends no later than if every node were 3x slower.
  EXPECT_LT(slowed, 3.0 * clean + 1e-9);
}

TEST(DistSim, StragglerWithoutExchangesOnlyDelaysItself) {
  qc::Circuit c(16);
  c.h(0).h(1).h(2);  // purely local
  const sv::ExecutionPlan plan = compile(c, 3, CommScheduler::Naive);
  StragglerConfig s;
  s.node = 0;
  s.slowdown = 2.0;
  const double clean = time_plan(plan, kA64fx, {}, kTofu).makespan_seconds;
  const double slowed =
      time_plan(plan, kA64fx, {}, kTofu, s).makespan_seconds;
  EXPECT_NEAR(slowed, 2.0 * clean, clean * 1e-6);
}

TEST(DistSim, WeakScalingCommGrowsWithNodes) {
  // Same local size, more node qubits: per-node exchange volume constant
  // but exchange count grows with the number of node-qubit gates (QFT uses
  // every qubit), so comm share rises — the Fig. 6 shape.
  const unsigned local = 20;
  double prev_comm = -1.0;
  for (unsigned d : {1u, 3u, 5u}) {
    const qc::Circuit c = qc::qft(local + d);
    const sv::ExecutionPlan plan = compile(c, d, CommScheduler::Naive);
    const DistTiming t = time_plan(plan, kA64fx, {}, kTofu);
    EXPECT_GT(t.comm_seconds, prev_comm);
    prev_comm = t.comm_seconds;
  }
}

}  // namespace
}  // namespace svsim::dist
