#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/dist_plan.hpp"
#include "perf/profile_report.hpp"
#include "perf/report.hpp"
#include "qc/library.hpp"
#include "sv/engine.hpp"
#include "sv/plan.hpp"
#include "sv/simulator.hpp"

namespace svsim {
namespace {

using obs::PhaseSample;
using obs::Profiler;
using obs::ProfilerOptions;
using obs::RunProfile;

// ---- kind vocabulary ------------------------------------------------------

TEST(ProfilePhaseKinds, MirrorsPlanIrNamesAndValues) {
  // obs cannot include sv, so it mirrors the phase vocabulary numerically.
  // If this test fails, the two tables diverged — fix obs/profile.hpp.
  ASSERT_EQ(obs::kProfilePhaseKinds, 4u);
  for (std::uint8_t k = 0; k < obs::kProfilePhaseKinds; ++k) {
    EXPECT_STREQ(obs::profile_phase_name(k),
                 sv::phase_kind_name(static_cast<sv::PhaseKind>(k)));
  }
  EXPECT_STREQ(obs::profile_phase_name(obs::kProfilePhaseKinds), "?");
}

// ---- install / uninstall --------------------------------------------------

TEST(Profiler, InstallUninstallLifecycle) {
  EXPECT_EQ(Profiler::current(), nullptr);
  {
    Profiler p;
    EXPECT_FALSE(p.installed());
    p.install();
    EXPECT_TRUE(p.installed());
    EXPECT_EQ(Profiler::current(), &p);

    Profiler q;
    EXPECT_THROW(q.install(), std::exception);

    p.uninstall();
    EXPECT_EQ(Profiler::current(), nullptr);
    q.install();  // slot free again
    EXPECT_EQ(Profiler::current(), &q);
  }  // q's destructor uninstalls
  EXPECT_EQ(Profiler::current(), nullptr);
}

// ---- executor-facing API --------------------------------------------------

PhaseSample sample(std::uint32_t index, std::uint8_t kind,
                   std::uint64_t duration_ns, std::uint64_t bytes = 0,
                   std::uint64_t dropped = 0) {
  PhaseSample s;
  s.index = index;
  s.kind = kind;
  s.gates = 1;
  s.duration_ns = duration_ns;
  s.bytes = bytes;
  s.dropped_spans = dropped;
  return s;
}

TEST(Profiler, RecordsRunsAndPhases) {
  Profiler p;
  p.begin_run({});
  p.record_phase(sample(0, obs::kProfilePhaseLocalSweep, 1000, 64));
  p.record_phase(sample(1, obs::kProfilePhaseDenseGate, 2000, 32));
  p.end_run(/*duration_ns=*/5000, /*partial=*/false);

  const auto runs = p.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(p.runs_recorded(), 1u);
  EXPECT_EQ(runs[0].duration_ns, 5000u);
  EXPECT_FALSE(runs[0].partial);
  ASSERT_EQ(runs[0].phases.size(), 2u);
  EXPECT_EQ(runs[0].phases[1].bytes, 32u);
}

TEST(Profiler, DroppedSpansMarkTheRunPartial) {
  Profiler p;
  p.begin_run({});
  p.record_phase(sample(0, obs::kProfilePhaseDenseGate, 10, 0, /*dropped=*/3));
  p.end_run(20, /*partial=*/false);  // executor flag false; sample wins
  ASSERT_EQ(p.runs().size(), 1u);
  EXPECT_TRUE(p.runs()[0].partial);
}

TEST(Profiler, MaxRunsEvictsOldest) {
  ProfilerOptions opts;
  opts.max_runs = 2;
  Profiler p(opts);
  for (std::uint64_t i = 0; i < 4; ++i) {
    p.begin_run({});
    p.record_phase(sample(0, obs::kProfilePhaseDenseGate, i + 1));
    p.end_run(i + 1, false);
  }
  EXPECT_EQ(p.runs_recorded(), 4u);
  const auto runs = p.runs();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].duration_ns, 3u);  // oldest two evicted
  EXPECT_EQ(runs[1].duration_ns, 4u);
}

TEST(Profiler, AggregateModeRetainsNothingButFeedsTheRegistry) {
  obs::ProfileRegistry::global().reset();
  ProfilerOptions opts;
  opts.retain_runs = false;
  Profiler p(opts);
  p.begin_run({});
  p.record_phase(sample(0, obs::kProfilePhaseLocalSweep, 1000, 128));
  p.end_run(1000, false);
  EXPECT_TRUE(p.runs().empty());
  EXPECT_EQ(p.runs_recorded(), 1u);
  const auto totals =
      obs::ProfileRegistry::global().kind_totals(obs::kProfilePhaseLocalSweep);
  EXPECT_EQ(totals.phases, 1u);
  EXPECT_EQ(totals.bytes, 128u);
}

TEST(Profiler, AnnotateExchangeAttachesWireSeconds) {
  Profiler p;
  p.begin_run({});
  p.record_phase(sample(0, obs::kProfilePhaseDenseGate, 10));
  p.record_phase(sample(1, obs::kProfilePhaseExchange, 20));
  p.end_run(30, false);
  p.annotate_exchange(1, {1e-6, 2e-6});
  p.annotate_exchange(0, {9.0});  // wrong kind: ignored
  p.annotate_exchange(7, {9.0});  // out of range: ignored
  const auto runs = p.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_DOUBLE_EQ(runs[0].phases[1].sim_exchange_seconds(), 3e-6);
  EXPECT_TRUE(runs[0].phases[0].sim_hop_seconds.empty());
}

// ---- registry -------------------------------------------------------------

TEST(ProfileRegistry, OpenMetricsDumpCarriesEveryFamily) {
  obs::ProfileRegistry::global().reset();
  obs::ProfileRegistry::global().note_phase(obs::kProfilePhaseExchange, 0.5,
                                            100, 0);
  obs::ProfileRegistry::global().note_run(0.5);
  std::ostringstream os;
  obs::ProfileRegistry::global().write_openmetrics(os);
  const std::string text = os.str();
  for (const char* family :
       {"svsim_profile_phases_total", "svsim_profile_phase_seconds_total",
        "svsim_profile_phase_bytes_total", "svsim_profile_phase_gates_total",
        "svsim_profile_runs_total", "svsim_profile_run_seconds_total"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("svsim_profile_phases_total{kind=\"exchange\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# EOF"), std::string::npos);
  obs::ProfileRegistry::global().reset();
}

// ---- phase attribution on real plans --------------------------------------

struct ProfiledRun {
  RunProfile run;
  sv::ExecutionPlan plan;
  sv::EngineStats stats;
};

ProfiledRun profile_circuit(const qc::Circuit& circuit,
                            const sv::ExecutionPlan& plan) {
  Profiler profiler;
  profiler.install();
  sv::StateVector<double> state(circuit.num_qubits());
  sv::PlanHooks<double> hooks;
  hooks.measure = [](sv::StateVector<double>&, const qc::Gate&) {};
  const sv::EngineStats stats = sv::run_plan(state, plan, hooks);
  profiler.uninstall();
  const auto runs = profiler.runs();
  EXPECT_EQ(runs.size(), 1u);
  return {runs.empty() ? RunProfile{} : runs.back(), plan, stats};
}

void expect_phase_attribution(const ProfiledRun& r) {
  ASSERT_EQ(r.run.phases.size(), r.plan.phases.size());
  std::uint64_t phase_ns = 0;
  std::uint64_t phase_bytes = 0;
  for (std::size_t i = 0; i < r.run.phases.size(); ++i) {
    const PhaseSample& s = r.run.phases[i];
    EXPECT_EQ(s.index, i);
    EXPECT_EQ(s.kind, static_cast<std::uint8_t>(r.plan.phases[i].kind));
    if (r.plan.phases[i].kind != sv::PhaseKind::Exchange)
      EXPECT_EQ(s.gates, r.plan.phases[i].gates.size());
    phase_ns += s.duration_ns;
    phase_bytes += s.bytes;
  }
  // Phase wall-times nest inside the run wall-time (same clock): the sum
  // can only fall short of the run by the inter-phase bookkeeping.
  EXPECT_LE(phase_ns, r.run.duration_ns);
  // Per-phase bytes are deltas of the same engine counter the run total
  // accumulates, so they tile it exactly.
  EXPECT_EQ(phase_bytes, r.stats.bytes_streamed);
  EXPECT_GT(phase_bytes, 0u);
}

TEST(ProfilerAttribution, DensePlan) {
  const qc::Circuit circuit = qc::qft(8);
  const auto r = profile_circuit(circuit, sv::compile_plan(circuit, {}));
  expect_phase_attribution(r);
  for (const PhaseSample& s : r.run.phases)
    EXPECT_EQ(s.kind, obs::kProfilePhaseDenseGate);
}

TEST(ProfilerAttribution, BlockedPlan) {
  const qc::Circuit circuit = qc::qft(10);
  sv::PlanOptions opts;
  opts.blocking = true;
  opts.block_qubits = 5;
  const auto r = profile_circuit(circuit, sv::compile_plan(circuit, opts));
  expect_phase_attribution(r);
  EXPECT_TRUE(std::any_of(r.run.phases.begin(), r.run.phases.end(),
                          [](const PhaseSample& s) {
                            return s.kind == obs::kProfilePhaseLocalSweep;
                          }));
}

TEST(ProfilerAttribution, DistributedPlan) {
  const qc::Circuit circuit = qc::qft(10);
  dist::DistExecOptions opts;
  opts.plan.blocking = true;
  opts.plan.block_qubits = 4;
  const auto r =
      profile_circuit(circuit, dist::compile_distributed(circuit, 2, opts));
  expect_phase_attribution(r);
  EXPECT_TRUE(std::any_of(r.run.phases.begin(), r.run.phases.end(),
                          [](const PhaseSample& s) {
                            return s.kind == obs::kProfilePhaseExchange;
                          }));
}

// ---- plan capture ---------------------------------------------------------

TEST(PlanCaptureScope, CapturesEveryExecutedPlan) {
  const qc::Circuit circuit = qc::qft(6);
  const sv::ExecutionPlan plan = sv::compile_plan(circuit, {});
  sv::PlanCaptureScope capture;
  EXPECT_EQ(sv::PlanCaptureScope::current(), &capture);
  EXPECT_THROW(sv::PlanCaptureScope{}, std::exception);
  sv::StateVector<double> state(circuit.num_qubits());
  sv::run_plan(state, plan);
  const auto plans = capture.plans();
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].phases.size(), plan.phases.size());
}

// ---- measured<->modeled join ----------------------------------------------

ProfiledRun profiled_blocked_qft() {
  const qc::Circuit circuit = qc::qft(10);
  sv::PlanOptions opts;
  opts.blocking = true;
  opts.block_qubits = 5;
  return profile_circuit(circuit, sv::compile_plan(circuit, opts));
}

TEST(ProfileReport, JoinsEveryPhaseAndNormalizesShares) {
  // A blocked plan, and a fused per-gate plan whose DenseGate phases the
  // drift table splits by kernel class.
  const qc::Circuit qft = qc::qft(10);
  sv::PlanOptions fused;
  fused.fusion = true;
  fused.fusion_width = 3;
  std::vector<ProfiledRun> runs;
  runs.push_back(profiled_blocked_qft());
  runs.push_back(profile_circuit(qft, sv::compile_plan(qft, fused)));
  const auto m = machine::MachineSpec::a64fx();
  for (const ProfiledRun& r : runs) {
    const perf::ProfileReport report =
        perf::build_profile_report(r.run, r.plan, m, {});
    ASSERT_EQ(report.phases.size(), r.plan.phases.size());
    double share = 0.0;
    for (const perf::PhaseProfile& p : report.phases) {
      EXPECT_GT(p.modeled_seconds, 0.0);
      EXPECT_GT(p.modeled_bytes, 0.0);
      EXPECT_STRNE(p.kernel, "");
      // Zero-flop phases (pure permutations like swap) legitimately sit at
      // AI = 0; everything else must land on the roofline.
      if (p.kind != sv::PhaseKind::Exchange && p.flops > 0.0)
        EXPECT_GT(p.roofline.point.attainable_gflops, 0.0);
      share += p.share;
    }
    EXPECT_NEAR(share, 1.0, 1e-9);
    EXPECT_GT(report.measured_seconds, 0.0);
    EXPECT_GT(report.modeled_seconds, 0.0);
    EXPECT_FALSE(report.partial);

    const auto order = report.by_measured_time();
    for (std::size_t i = 1; i < order.size(); ++i)
      EXPECT_GE(order[i - 1]->measured_seconds, order[i]->measured_seconds);

    // Drift table: one row per phase kind, DenseGate rows per kernel
    // class, then TOTAL; the rows account for every gate exactly once.
    const Table t = perf::drift_phase_table(report);
    ASSERT_GE(t.num_rows(), 2u);
    std::vector<std::string> labels;
    std::int64_t gates = 0;
    for (std::size_t i = 0; i + 1 < t.num_rows(); ++i) {
      labels.push_back(std::get<std::string>(t.row(i)[0]));
      gates += std::get<std::int64_t>(t.row(i)[2]);
    }
    EXPECT_EQ(std::get<std::string>(t.row(t.num_rows() - 1)[0]), "TOTAL");
    EXPECT_EQ(gates, static_cast<std::int64_t>(r.plan.total_gates()));
    for (const perf::PhaseProfile& p : report.phases) {
      const std::string want =
          p.kind == sv::PhaseKind::DenseGate
              ? "dense_gate/" + std::string(p.kernel)
              : std::string(sv::phase_kind_name(p.kind));
      EXPECT_EQ(std::count(labels.begin(), labels.end(), want), 1) << want;
    }
  }
}

TEST(ProfileReport, MismatchedPlanIsRejected) {
  const auto r = profiled_blocked_qft();
  const sv::ExecutionPlan other = sv::compile_plan(qc::qft(4), {});
  ASSERT_NE(other.phases.size(), r.run.phases.size());
  const auto m = machine::MachineSpec::a64fx();
  EXPECT_THROW(perf::build_profile_report(r.run, other, m, {}),
               std::exception);
}

TEST(ProfileReport, PartialSamplePropagatesToReport) {
  auto r = profiled_blocked_qft();
  r.run.phases[0].dropped_spans = 5;
  const auto m = machine::MachineSpec::a64fx();
  const perf::ProfileReport report =
      perf::build_profile_report(r.run, r.plan, m, {});
  EXPECT_TRUE(report.partial);
  // The partial marker must surface in both human views.
  EXPECT_NE(perf::drift_phase_table(report).to_text().find("PARTIAL"),
            std::string::npos);
  EXPECT_NE(perf::profile_env_table(report).to_text().find("PARTIAL"),
            std::string::npos);
}

TEST(ProfileReport, JsonArtifactIsStructurallySound) {
  const auto r = profiled_blocked_qft();
  const auto m = machine::MachineSpec::a64fx();
  const perf::ProfileReport report =
      perf::build_profile_report(r.run, r.plan, m, {});
  std::ostringstream os;
  perf::write_profile_json(report, os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  for (const char* key :
       {"\"env\":{", "\"totals\":{", "\"phases\":[", "\"attribution\":[",
        "\"machine\":\"A64FX", "\"roofline\":{", "\"hw\":{",
        "\"cumulative_share\":", "\"probed_cache_budget_bytes\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Balanced braces/brackets — catches truncated writers.
  long braces = 0;
  long brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Every phase appears once in "phases" and once in "attribution".
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"index\":"); pos != std::string::npos;
       pos = json.find("\"index\":", pos + 1))
    ++count;
  EXPECT_EQ(count, 2 * report.phases.size());
}

TEST(ProfileChromeOverlay, EmitsPhaseLanes) {
  const auto r = profiled_blocked_qft();
  std::ostringstream os;
  obs::write_profile_chrome_json(os, {}, {r.run});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("local_sweep"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

// ---- overhead guard -------------------------------------------------------

TEST(ProfilerOverhead, DisabledPathStaysUnderTwoPercent) {
  // The acceptance criterion is on the *disabled* hot path: one atomic
  // load per run when no profiler is installed. Compare best-of-N so the
  // guard measures the floor, not scheduler noise.
  const qc::Circuit circuit = qc::qft(13);
  sv::PlanOptions opts;
  opts.blocking = true;
  const sv::ExecutionPlan plan = sv::compile_plan(circuit, opts);
  sv::StateVector<double> state(circuit.num_qubits());

  const auto best_of = [&](bool profiled) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      Profiler profiler;
      if (profiled) profiler.install();
      const auto t0 = obs::Tracer::global().now_ns();
      sv::run_plan(state, plan);
      const auto t1 = obs::Tracer::global().now_ns();
      if (profiled) profiler.uninstall();
      best = std::min(best, static_cast<double>(t1 - t0));
    }
    return best;
  };

  best_of(false);  // warm up caches and the thread pool
  const double baseline = best_of(false);
  const double profiled = best_of(true);
  // 2% target with absolute slack for timer/scheduler granularity on the
  // very short smoke-tier runs.
  EXPECT_LT(profiled, baseline * 1.02 + 2e6)
      << "profiled best " << profiled * 1e-6 << " ms vs baseline "
      << baseline * 1e-6 << " ms";
}

}  // namespace
}  // namespace svsim
