// Exchange placement by dist::compile_distributed: which gates communicate,
// how many bytes each rank moves, and where the Belady remapper leaves the
// qubits. Plans are compiled model-only (no layout-restore epilogue), so the
// exchange counts are the gates' own.
#include "dist/dist_plan.hpp"

#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "qc/library.hpp"

namespace svsim::dist {
namespace {

using qc::Circuit;
using sv::ExecutionPlan;
using sv::PhaseKind;

constexpr unsigned kN = 10;   // total qubits
constexpr unsigned kD = 3;    // 8 ranks, local = 7
const double kPartitionBytes = 128.0 * 16.0;  // 2^7 amps x 16 B

ExecutionPlan compile(const Circuit& c, CommScheduler scheduler,
                      unsigned element_bytes = 8) {
  DistExecOptions o;
  o.scheduler = scheduler;
  o.element_bytes = element_bytes;
  o.restore_layout = false;
  return compile_distributed(c, kD, o);
}

const sv::ExchangeHop& last_hop(const ExecutionPlan& plan) {
  for (auto it = plan.phases.rbegin(); it != plan.phases.rend(); ++it)
    if (it->kind == PhaseKind::Exchange) return it->hops.back();
  throw Error("plan has no Exchange phase");
}

TEST(DistCompiler, ValidatesArguments) {
  Circuit c(4);
  c.h(0);
  EXPECT_THROW(compile_distributed(c, 4), Error);
  EXPECT_THROW(compile_distributed(c, 3), Error);
  EXPECT_NO_THROW(compile_distributed(c, 2));
}

TEST(DistCompiler, LocalGatesNeverCommunicate) {
  Circuit c(kN);
  c.h(0).cx(1, 2).rz(3, 0.5).swap(4, 5).ccx(0, 1, 6);
  for (auto sched : {CommScheduler::Naive, CommScheduler::Remap}) {
    const ExecutionPlan plan = compile(c, sched);
    EXPECT_EQ(plan.num_exchanges, 0u) << scheduler_name(sched);
    EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, 0.0);
  }
}

TEST(DistCompiler, DiagonalGatesOnNodeQubitsAreFree) {
  Circuit c(kN);
  // Qubits 7, 8, 9 live in the rank.
  c.z(8).rz(9, 0.4).cp(7, 9, 0.3).cz(0, 8).rzz(7, 8, 0.2);
  for (auto sched : {CommScheduler::Naive, CommScheduler::Remap})
    EXPECT_EQ(compile(c, sched).num_exchanges, 0u) << scheduler_name(sched);
}

TEST(DistCompiler, NodeControlIsFree) {
  Circuit c(kN);
  c.cx(8, 2);   // control on node qubit, target local: conditional local X
  c.ccx(7, 9, 3);
  for (auto sched : {CommScheduler::Naive, CommScheduler::Remap})
    EXPECT_EQ(compile(c, sched).num_exchanges, 0u) << scheduler_name(sched);
}

TEST(DistCompiler, NonDiagonalNodeTargetCostsFullPartitionExchange) {
  Circuit c(kN);
  c.h(8);
  const ExecutionPlan plan = compile(c, CommScheduler::Naive);
  EXPECT_EQ(plan.num_exchanges, 1u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, kPartitionBytes);
  EXPECT_EQ(last_hop(plan).rank_bit, 1);  // slot 8 -> bit 1
}

TEST(DistCompiler, LocalControlHalvesExchangeVolume) {
  Circuit c(kN);
  c.cx(2, 8);  // local control, node target
  const ExecutionPlan plan = compile(c, CommScheduler::Naive);
  EXPECT_EQ(plan.num_exchanges, 1u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, kPartitionBytes / 2.0);
}

TEST(DistCompiler, LocalNodeSwapMovesHalf) {
  Circuit c(kN);
  c.swap(3, 9);
  const ExecutionPlan plan = compile(c, CommScheduler::Naive);
  EXPECT_EQ(plan.num_exchanges, 1u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, kPartitionBytes / 2.0);
}

TEST(DistCompiler, NaivePaysPerGateOnRepeatedNodeTargets) {
  Circuit c(kN);
  for (int i = 0; i < 5; ++i) c.h(9);
  const ExecutionPlan plan = compile(c, CommScheduler::Naive);
  EXPECT_EQ(plan.num_exchanges, 5u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, 5.0 * kPartitionBytes);
  // The naive scheduler never moves the layout.
  for (unsigned q = 0; q < kN; ++q) EXPECT_EQ(plan.final_slot_of[q], q);
}

TEST(DistCompiler, RemapPaysOnceForRepeatedNodeTargets) {
  Circuit c(kN);
  for (int i = 0; i < 5; ++i) c.h(9);
  const ExecutionPlan plan = compile(c, CommScheduler::Remap);
  EXPECT_EQ(plan.num_exchanges, 1u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, kPartitionBytes / 2.0);
  EXPECT_EQ(last_hop(plan).node_slot, 9u);
  // Qubit 9 now lives in a local slot.
  EXPECT_LT(plan.final_slot_of[9], plan.local_qubits);
}

TEST(DistCompiler, RemapTracksPermutationConsistently) {
  Circuit c(kN);
  c.h(9).h(8).h(7).h(9).h(8);
  const ExecutionPlan plan = compile(c, CommScheduler::Remap);
  // slot_of must stay a permutation.
  std::vector<bool> seen(kN, false);
  for (unsigned q = 0; q < kN; ++q) {
    EXPECT_LT(plan.final_slot_of[q], kN);
    EXPECT_FALSE(seen[plan.final_slot_of[q]]);
    seen[plan.final_slot_of[q]] = true;
  }
  // 3 remaps only (one per distinct qubit).
  EXPECT_EQ(plan.num_exchanges, 3u);
}

TEST(DistCompiler, RemapBeatsNaiveOnQft) {
  const Circuit c = qc::qft(kN);
  const ExecutionPlan naive = compile(c, CommScheduler::Naive);
  const ExecutionPlan remap = compile(c, CommScheduler::Remap);
  EXPECT_GT(naive.exchange_bytes_per_rank, 0.0);
  EXPECT_LT(remap.exchange_bytes_per_rank, naive.exchange_bytes_per_rank);
}

TEST(DistCompiler, RemapBeladyEvictsFarthestNextUse) {
  // After remapping q9 in, the evicted local qubit must be one not used
  // soon. Build a circuit where q0 is used immediately after.
  Circuit c(kN);
  c.h(9);       // forces remap; q0..q6 occupy local slots
  c.h(0);       // q0 used next -> must NOT have been evicted
  const ExecutionPlan plan = compile(c, CommScheduler::Remap);
  EXPECT_NE(last_hop(plan).local_slot, 0u);
  EXPECT_LT(plan.final_slot_of[0], plan.local_qubits);
}

TEST(DistCompiler, NodeSlotTargetsRunOnlyAfterAnExchange) {
  // Remap moves every non-diagonal target into a local slot before its gate
  // runs; Naive leaves it on the node slot but pays an exchange right before.
  const Circuit c = qc::qft(kN);
  for (auto sched : {CommScheduler::Naive, CommScheduler::Remap}) {
    const ExecutionPlan plan = compile(c, sched);
    for (std::size_t i = 0; i < plan.phases.size(); ++i) {
      const auto& phase = plan.phases[i];
      if (phase.kind == PhaseKind::Exchange) continue;
      for (const auto& g : phase.gates) {
        if (g.is_diagonal()) continue;
        bool node_target = false;
        for (unsigned q : g.targets())
          node_target = node_target || q >= plan.local_qubits;
        if (!node_target) continue;
        EXPECT_EQ(sched, CommScheduler::Naive);
        ASSERT_GT(i, 0u);
        EXPECT_EQ(plan.phases[i - 1].kind, PhaseKind::Exchange);
      }
    }
  }
}

TEST(DistCompiler, ElementBytesScalesVolume) {
  Circuit c(kN);
  c.h(9);
  const ExecutionPlan dp = compile(c, CommScheduler::Naive, 8);
  const ExecutionPlan sp = compile(c, CommScheduler::Naive, 4);
  EXPECT_DOUBLE_EQ(sp.exchange_bytes_per_rank,
                   dp.exchange_bytes_per_rank / 2.0);
}

TEST(DistCompiler, GhzChainCommunicatesOnlyAtBoundary) {
  // GHZ: H(0) + CX chain. Only CX gates whose *target* is a node qubit
  // exchange; with remap the count collapses further.
  const Circuit c = qc::ghz(kN);
  const ExecutionPlan naive = compile(c, CommScheduler::Naive);
  // Targets 7, 8, 9 are node qubits: 3 exchanges. cx(6,7) is halved by its
  // local control; cx(7,8) and cx(8,9) have node controls (free) and move a
  // full partition on the participating ranks.
  EXPECT_EQ(naive.num_exchanges, 3u);
  EXPECT_DOUBLE_EQ(naive.exchange_bytes_per_rank, 2.5 * kPartitionBytes);
}

}  // namespace
}  // namespace svsim::dist
