// Timeline recorder + critical-path attribution + what-if replay.
//
// The load-bearing invariant: the recorder re-derives the makespan
// simulator's clock chain with the same floating-point expressions, so the
// chronological sum of critical-path step durations equals the returned
// makespan *bit-exactly* (EXPECT_EQ on doubles, not EXPECT_NEAR). The same
// exactness holds for the what-if replay at all-1.0 knobs and for the
// power-of-two "everything x2" scenario. These tests pin that invariant on
// dense, blocked, and 2/4/8-rank distributed plans (with and without a
// trailing measurement), plus the structural properties the JSON schema
// checker relies on: gap-free per-rank tiling, symmetric wire pairing, and
// waits that never appear on the path.
#include "dist/timeline.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "dist/dist_plan.hpp"
#include "dist/dist_sim.hpp"
#include "machine/machine_spec.hpp"
#include "obs/metrics.hpp"
#include "perf/critical_path.hpp"
#include "qc/library.hpp"
#include "sv/plan.hpp"

namespace svsim::dist {
namespace {

const machine::MachineSpec kA64fx = machine::MachineSpec::a64fx();
const InterconnectSpec kTofu = InterconnectSpec::tofu_d();

sv::ExecutionPlan distributed_plan(unsigned num_qubits, unsigned node_qubits,
                                   bool measured = false) {
  qc::Circuit c = qc::random_quantum_volume(num_qubits, 4, 17);
  if (measured) c.measure_all();
  return compile_distributed(c, node_qubits, {});
}

Timeline record(const sv::ExecutionPlan& plan,
                const StragglerConfig& straggler = {}) {
  return record_timeline(plan, kA64fx, {}, kTofu, straggler);
}

// ------------------------------------------------------------- recording --

TEST(Timeline, DensePlanIsASingleComputeLane) {
  const sv::ExecutionPlan plan = sv::compile_plan(qc::qft(8), {});
  const Timeline tl = record(plan);
  ASSERT_EQ(tl.num_ranks(), 1u);
  EXPECT_EQ(tl.plan_id, plan.summary_id());
  EXPECT_GT(tl.total_events(), 0u);
  for (const auto& e : tl.ranks[0].events)
    EXPECT_EQ(e.kind, TimelineEventKind::Compute);
  // One rank: the recorded clock chain is the BSP sum, bit for bit.
  EXPECT_EQ(tl.makespan_seconds,
            time_plan(plan, kA64fx, {}, kTofu).makespan_seconds);
}

TEST(Timeline, RecorderMatchesRecorderlessMakespanBitExactly) {
  // The recorder does not perturb the per-rank clocks: with the same
  // straggler, recorded and recorderless makespans are bit-identical.
  const sv::ExecutionPlan plan = distributed_plan(12, 3);
  StragglerConfig s;
  s.node = 3;
  s.slowdown = 3.0;
  const Timeline tl = record(plan, s);
  EXPECT_EQ(tl.makespan_seconds,
            time_plan(plan, kA64fx, {}, kTofu, s).makespan_seconds);
  EXPECT_EQ(tl.num_ranks(), 8u);
  // Without a straggler the recorded walk agrees with the BSP total.
  const DistTiming bsp = time_plan(plan, kA64fx, {}, kTofu);
  EXPECT_NEAR(record(plan).makespan_seconds, bsp.total_seconds,
              bsp.total_seconds * 1e-9);
}

TEST(Timeline, RankAxesTileWithoutGaps) {
  const Timeline tl = record(distributed_plan(12, 3));
  for (const auto& rt : tl.ranks) {
    double clock = 0.0;
    double compute = 0.0, wire = 0.0, wait = 0.0;
    for (const auto& e : rt.events) {
      EXPECT_DOUBLE_EQ(e.start_seconds, clock);
      clock = e.end_seconds();
      switch (e.kind) {
        case TimelineEventKind::Compute: compute += e.duration_seconds; break;
        case TimelineEventKind::Wire: wire += e.duration_seconds; break;
        case TimelineEventKind::Wait: wait += e.duration_seconds; break;
      }
    }
    EXPECT_LE(rt.end_seconds, tl.makespan_seconds);
    EXPECT_DOUBLE_EQ(rt.compute_seconds, compute);
    EXPECT_DOUBLE_EQ(rt.wire_seconds, wire);
    EXPECT_DOUBLE_EQ(rt.wait_seconds, wait);
  }
}

TEST(Timeline, WireEventsArePairedSymmetrically) {
  const Timeline tl = record(distributed_plan(12, 2));
  std::size_t wires = 0;
  for (const auto& rt : tl.ranks) {
    for (std::size_t i = 0; i < rt.events.size(); ++i) {
      const TimelineEvent& e = rt.events[i];
      if (e.kind != TimelineEventKind::Wire) {
        EXPECT_EQ(e.partner_event, kNoPartnerEvent);
        continue;
      }
      ++wires;
      ASSERT_LT(e.partner, tl.num_ranks());
      const auto& pe = tl.ranks[e.partner].events.at(e.partner_event);
      EXPECT_EQ(pe.kind, TimelineEventKind::Wire);
      EXPECT_EQ(pe.partner, rt.rank);
      EXPECT_EQ(pe.partner_event, static_cast<std::uint32_t>(i));
      EXPECT_EQ(pe.start_seconds, e.start_seconds);
      EXPECT_EQ(pe.duration_seconds, e.duration_seconds);
      EXPECT_EQ(pe.rank_bit, e.rank_bit);
      EXPECT_EQ(pe.bytes, e.bytes);
      // The interconnect cost split reassembles into the duration.
      EXPECT_EQ(e.duration_seconds, e.fixed_seconds + e.transfer_seconds);
    }
  }
  EXPECT_GT(wires, 0u);
}

// --------------------------------------------------------- critical path --

TEST(CriticalPath, SumEqualsMakespanOnDensePlan) {
  const Timeline tl = record(sv::compile_plan(qc::qft(8), {}));
  const perf::CriticalPath cp = perf::extract_critical_path(tl);
  EXPECT_EQ(cp.path_seconds, tl.makespan_seconds);
  EXPECT_EQ(cp.wire_seconds, 0.0);
}

TEST(CriticalPath, SumEqualsMakespanOnBlockedPlan) {
  sv::PlanOptions po;
  po.blocking = true;
  po.machine = &kA64fx;
  const Timeline tl = record(sv::compile_plan(qc::qft(12), po));
  const perf::CriticalPath cp = perf::extract_critical_path(tl);
  EXPECT_EQ(cp.path_seconds, tl.makespan_seconds);
}

TEST(CriticalPath, SumEqualsMakespanAcrossRankCounts) {
  for (unsigned d : {1u, 2u, 3u}) {
    const Timeline tl = record(distributed_plan(12, d));
    const perf::CriticalPath cp = perf::extract_critical_path(tl);
    EXPECT_EQ(cp.path_seconds, tl.makespan_seconds) << "ranks=" << (1u << d);
    EXPECT_GT(cp.wire_seconds, 0.0) << "ranks=" << (1u << d);
    ASSERT_EQ(cp.ranks.size(), std::size_t{1} << d);
    // Per-rank critical seconds partition the path.
    double critical = 0.0;
    for (const auto& ra : cp.ranks) critical += ra.critical_seconds;
    EXPECT_NEAR(critical, cp.path_seconds, cp.path_seconds * 1e-12);
  }
}

TEST(CriticalPath, TrailingMeasurementFinishesThePath) {
  const Timeline tl = record(distributed_plan(12, 2, /*measured=*/true));
  const perf::CriticalPath cp = perf::extract_critical_path(tl);
  EXPECT_EQ(cp.path_seconds, tl.makespan_seconds);
  ASSERT_FALSE(cp.steps.empty());
  EXPECT_EQ(cp.steps.back().phase_kind, sv::PhaseKind::MeasureFlush);
}

TEST(CriticalPath, AttributionSpansTheMakespanPerRank) {
  const Timeline tl = record(distributed_plan(12, 3));
  const perf::CriticalPath cp = perf::extract_critical_path(tl);
  for (const auto& ra : cp.ranks) {
    const double span =
        ra.compute_seconds + ra.wire_seconds + ra.wait_seconds + ra.slack_seconds;
    EXPECT_NEAR(span, tl.makespan_seconds, tl.makespan_seconds * 1e-9)
        << "rank " << ra.rank;
  }
  std::uint64_t histogrammed = 0;
  for (const auto b : cp.slack_histogram) histogrammed += b;
  EXPECT_EQ(histogrammed, tl.num_ranks());
}

TEST(CriticalPath, StragglerWaitsStayOffThePath) {
  const sv::ExecutionPlan plan = distributed_plan(12, 3);
  StragglerConfig s;
  s.node = 3;
  s.slowdown = 3.0;
  const Timeline clean = record(plan);
  const Timeline slow = record(plan, s);
  EXPECT_GT(slow.makespan_seconds, clean.makespan_seconds);

  std::size_t waits = 0;
  for (const auto& rt : slow.ranks)
    for (const auto& e : rt.events)
      if (e.kind == TimelineEventKind::Wait) ++waits;
  EXPECT_GT(waits, 0u);

  const perf::CriticalPath cp = perf::extract_critical_path(slow);
  EXPECT_EQ(cp.path_seconds, slow.makespan_seconds);
  EXPECT_EQ(cp.wait_seconds, 0.0);
  for (const auto& step : cp.steps)
    EXPECT_NE(step.kind, TimelineEventKind::Wait);
  // The straggler carries the bulk of the path.
  const auto& straggler_share = cp.ranks[3].critical_seconds;
  for (const auto& ra : cp.ranks)
    if (ra.rank != 3) EXPECT_LT(ra.critical_seconds, straggler_share);
}

// --------------------------------------------------------------- what-if --

TEST(WhatIf, UnityKnobsReproduceMakespanBitExactly) {
  for (unsigned d : {1u, 3u}) {
    const Timeline tl = record(distributed_plan(12, d));
    const perf::WhatIfResult r = perf::replay_timeline(tl, perf::WhatIfKnobs{});
    EXPECT_EQ(r.makespan_seconds, tl.makespan_seconds) << "ranks=" << (1u << d);
    EXPECT_EQ(r.baseline_seconds, tl.makespan_seconds);
    EXPECT_DOUBLE_EQ(r.speedup(), 1.0);
  }
}

TEST(WhatIf, EverythingTwiceAsFastHalvesTheMakespan) {
  // Every replayed duration is scaled by exactly 0.5 (a power of two), and
  // halving commutes with IEEE addition/rounding, so the speedup is exact.
  const Timeline tl = record(distributed_plan(12, 3));
  perf::WhatIfKnobs k;
  k.name = "everything x2";
  k.compute_scale = 2.0;
  k.link_bandwidth_scale = 2.0;
  k.latency_scale = 0.5;
  const perf::WhatIfResult r = perf::replay_timeline(tl, k);
  EXPECT_EQ(2.0 * r.makespan_seconds, tl.makespan_seconds);
}

TEST(WhatIf, KnobsMoveTheMakespanTheRightWay) {
  const Timeline tl = record(distributed_plan(12, 3));
  perf::WhatIfKnobs compute;
  compute.compute_scale = 2.0;
  perf::WhatIfKnobs wire;
  wire.link_bandwidth_scale = 2.0;
  wire.latency_scale = 0.5;
  const double base = tl.makespan_seconds;
  EXPECT_LT(perf::replay_timeline(tl, compute).makespan_seconds, base);
  EXPECT_LT(perf::replay_timeline(tl, wire).makespan_seconds, base);
}

TEST(WhatIf, DefaultSensitivitySweepLeadsWithBaseline) {
  const Timeline tl = record(distributed_plan(12, 2));
  const auto results = perf::whatif_sensitivity(tl);
  ASSERT_EQ(results.size(), perf::default_whatif_scenarios().size());
  EXPECT_EQ(results[0].knobs.name, "baseline");
  EXPECT_EQ(results[0].makespan_seconds, tl.makespan_seconds);
  for (const auto& r : results) EXPECT_EQ(r.baseline_seconds, tl.makespan_seconds);
}

// ---------------------------------------------------------------- guards --

TEST(Guards, MakespanRefusesPlansAboveTheRankCap) {
  // 2^23 ranks: one above kMakespanMaxRanks. The guard fires before any
  // per-rank allocation, so compiling the plan is the only real cost.
  const sv::ExecutionPlan plan = compile_distributed(qc::qft(25), 23, {});
  // Without a straggler or recorder no clocks run, so no cap applies.
  EXPECT_NO_THROW(time_plan(plan, kA64fx, {}, kTofu));
  StragglerConfig s;
  s.node = 0;
  s.slowdown = 2.0;
  try {
    time_plan(plan, kA64fx, {}, kTofu, s);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("8388608"), std::string::npos) << msg;
    EXPECT_NE(msg.find(plan.summary_id()), std::string::npos) << msg;
  }
}

TEST(Guards, TimelineRefusesPlansAboveTheRecorderCap) {
  // 2^13 ranks: fine for the per-rank clocks, too wide to record.
  const sv::ExecutionPlan plan = compile_distributed(qc::qft(15), 13, {});
  try {
    record(plan);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("8192"), std::string::npos) << msg;
    EXPECT_NE(msg.find(plan.summary_id()), std::string::npos) << msg;
  }
}

// --------------------------------------------------------- observability --

TEST(Metrics, RecordingPublishesTimelineGauges) {
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t records0 = registry.counter("dist.timeline.records").value();
  const std::uint64_t events0 = registry.counter("dist.timeline.events").value();
  const Timeline tl = record(distributed_plan(12, 3));
  EXPECT_EQ(registry.counter("dist.timeline.records").value(), records0 + 1);
  EXPECT_EQ(registry.counter("dist.timeline.events").value(),
            events0 + tl.total_events());
  EXPECT_DOUBLE_EQ(registry.gauge("dist.timeline.imbalance").value(),
                   tl.imbalance());
  EXPECT_DOUBLE_EQ(registry.gauge("dist.timeline.wire_utilization").value(),
                   tl.wire_utilization());
  EXPECT_DOUBLE_EQ(registry.gauge("dist.timeline.makespan_seconds").value(),
                   tl.makespan_seconds);
  EXPECT_GE(tl.imbalance(), 1.0);
  EXPECT_GT(tl.wire_utilization(), 0.0);
  EXPECT_LE(tl.wire_utilization(), 1.0);
}

TEST(ChromeTrace, OneLanePerRankPlusWireLane) {
  const Timeline tl = record(distributed_plan(12, 3));
  std::ostringstream os;
  write_timeline_chrome_json(os, tl);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":4"), std::string::npos);
  EXPECT_NE(json.find("wire b"), std::string::npos);
  // One thread-name metadata record per rank in the rank-lane process.
  for (std::uint64_t r = 0; r < tl.num_ranks(); ++r) {
    const std::string lane = "\"tid\":" + std::to_string(r);
    EXPECT_NE(json.find(lane), std::string::npos) << "rank " << r;
  }
}

TEST(ArtifactJson, ContainsSchemaSpine) {
  const Timeline tl = record(distributed_plan(12, 2, /*measured=*/true));
  const perf::CriticalPath cp = perf::extract_critical_path(tl);
  std::ostringstream os;
  perf::write_timeline_json(tl, cp, perf::whatif_sensitivity(tl), os);
  const std::string json = os.str();
  for (const char* key :
       {"\"version\"", "\"plan\"", "\"makespan_seconds\"", "\"ranks\"",
        "\"critical_path\"", "\"attribution\"", "\"slack_histogram\"",
        "\"whatif\"", "\"wire_utilization\"", "\"imbalance\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

// ------------------------------------------------------- machine scaling --

TEST(WhatIf, ScaledMachineLowersTheRecordedMakespan) {
  const sv::ExecutionPlan plan = distributed_plan(12, 2);
  const Timeline base = record(plan);
  const machine::MachineSpec fast = kA64fx.scaled(2.0, 2.0);
  const Timeline scaled = record_timeline(plan, fast, {}, kTofu);
  EXPECT_LT(scaled.makespan_seconds, base.makespan_seconds);
  EXPECT_NE(fast.name, kA64fx.name);
}

}  // namespace
}  // namespace svsim::dist
