// ExecutionContext regression tests.
//
// The stale-handle bug class these tests guard against: a layer caching a
// `Counter&` in a function-local static pins the FIRST registry it ever saw,
// so after a caller substitutes a registry through the context, increments
// keep landing in the old one. Every test here therefore (1) warms the
// default/global path once, then (2) substitutes a fresh registry via an
// ExecutionContext and asserts the counters land in the new registry and
// the global counts stay frozen.
#include "obs/context.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "dist/dist_plan.hpp"
#include "dist/dist_sim.hpp"
#include "dist/timeline.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "perf/perf_simulator.hpp"
#include "qc/library.hpp"
#include "sv/engine.hpp"
#include "sv/plan.hpp"
#include "sv/simd/simd.hpp"
#include "sv/state_vector.hpp"

namespace svsim {
namespace {

sv::ExecutionPlan small_plan() {
  const qc::Circuit c = qc::qft(4);
  return sv::compile_plan(c, sv::PlanOptions{});
}

std::uint64_t global_count(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

TEST(ExecutionContext, DefaultResolvesToProcessSingletons) {
  const ExecutionContext& ctx = ExecutionContext::global();
  EXPECT_EQ(&ctx.metrics(), &obs::MetricsRegistry::global());
  EXPECT_EQ(&ctx.tracer(), &obs::Tracer::global());
  EXPECT_EQ(&ctx.pool(), &ThreadPool::global());
  EXPECT_EQ(ctx.profiler(), obs::Profiler::current());
  EXPECT_EQ(ctx.config().simd_isa, -1);
  EXPECT_EQ(ctx.config().element_bytes, 8u);
}

TEST(ExecutionContext, RunPlanCountersLandInSubstitutedRegistry) {
  const sv::ExecutionPlan plan = small_plan();

  // Warm the global path: a stale-handle implementation resolves (and
  // pins) its counter references on this first call.
  sv::StateVector<double> warm(plan.num_qubits);
  sv::run_plan(warm, plan);
  const std::uint64_t frozen = global_count("plan.executions");

  obs::MetricsRegistry mine;
  ExecutionContext ctx;
  ctx.with_metrics(mine);
  sv::StateVector<double> state(plan.num_qubits);
  sv::run_plan(state, plan, {}, ctx);

  EXPECT_EQ(mine.counter("plan.executions").value(), 1u);
  EXPECT_GE(mine.counter("plan.phases_executed").value(), 1u);
  EXPECT_EQ(global_count("plan.executions"), frozen);
}

TEST(ExecutionContext, SimdDispatchCountsFollowRegistry) {
  // Warm the global path first, then count into a private registry.
  sv::simd::count_dispatch(sv::KernelClass::Hadamard);
  const std::uint64_t frozen = global_count("sv.simd.dispatch.h");

  obs::MetricsRegistry mine;
  sv::simd::count_dispatch(sv::KernelClass::Hadamard, mine);
  sv::simd::count_dispatch(sv::KernelClass::Hadamard, mine);
  EXPECT_EQ(mine.counter("sv.simd.dispatch.h").value(), 2u);
  EXPECT_EQ(global_count("sv.simd.dispatch.h"), frozen);
}

TEST(ExecutionContext, CompilePathMetricsFollowOptionsRegistry) {
  const qc::Circuit c = qc::qft(6);
  sv::PlanOptions warm_po;
  warm_po.fusion = true;
  sv::compile_plan(c, warm_po);  // warm the global path
  const std::uint64_t frozen = global_count("plan.compiles");

  obs::MetricsRegistry mine;
  sv::PlanOptions po;
  po.fusion = true;
  po.metrics = &mine;
  sv::compile_plan(c, po);
  EXPECT_EQ(mine.counter("plan.compiles").value(), 1u);
  EXPECT_GE(mine.counter("fusion.blocks").value(), 1u);
  EXPECT_EQ(global_count("plan.compiles"), frozen);
}

TEST(ExecutionContext, TimePlanMetricsFollowContext) {
  const qc::Circuit c = qc::qft(6);
  const sv::ExecutionPlan plan = dist::compile_distributed(c, 1, {});
  const machine::MachineSpec m = machine::MachineSpec::a64fx();
  const dist::InterconnectSpec net = dist::InterconnectSpec::tofu_d();

  dist::time_plan(plan, m, {}, net);  // warm the global path
  const std::uint64_t frozen = global_count("dist.plan_evals");

  obs::MetricsRegistry mine;
  ExecutionContext ctx;
  ctx.with_metrics(mine);
  dist::time_plan(plan, m, {}, net, {}, nullptr, ctx);
  EXPECT_EQ(mine.counter("dist.plan_evals").value(), 1u);
  // The embedded cost-model evaluation threads through the same context.
  EXPECT_EQ(mine.counter("perf.plan_cost_evals").value(), 1u);
  EXPECT_GE(mine.counter("dist.exchanges").value(), 1u);
  EXPECT_EQ(global_count("dist.plan_evals"), frozen);
}

TEST(ExecutionContext, RecordTimelineMetricsFollowContext) {
  const qc::Circuit c = qc::qft(6);
  const sv::ExecutionPlan plan = dist::compile_distributed(c, 1, {});
  const machine::MachineSpec m = machine::MachineSpec::a64fx();
  const dist::InterconnectSpec net = dist::InterconnectSpec::tofu_d();

  dist::record_timeline(plan, m, {}, net);  // warm the global path
  const std::uint64_t frozen = global_count("dist.timeline.records");

  obs::MetricsRegistry mine;
  ExecutionContext ctx;
  ctx.with_metrics(mine);
  const dist::Timeline t = dist::record_timeline(plan, m, {}, net, {}, ctx);
  EXPECT_EQ(mine.counter("dist.timeline.records").value(), 1u);
  EXPECT_EQ(mine.counter("dist.timeline.events").value(), t.total_events());
  EXPECT_GT(mine.gauge("dist.timeline.makespan_seconds").value(), 0.0);
  EXPECT_EQ(global_count("dist.timeline.records"), frozen);
}

TEST(ExecutionContext, CostPlanMetricsFollowContext) {
  const sv::ExecutionPlan plan = small_plan();
  const machine::MachineSpec m = machine::MachineSpec::a64fx();

  perf::cost_plan(plan, m, {});  // warm the global path
  const std::uint64_t frozen = global_count("perf.plan_cost_evals");

  obs::MetricsRegistry mine;
  ExecutionContext ctx;
  ctx.with_metrics(mine);
  perf::cost_plan(plan, m, {}, ctx);
  EXPECT_EQ(mine.counter("perf.plan_cost_evals").value(), 1u);
  EXPECT_EQ(global_count("perf.plan_cost_evals"), frozen);
}

TEST(ExecutionContext, SpansRecordIntoSubstitutedTracer) {
  obs::Tracer tracer;
  tracer.enable();
  ExecutionContext ctx;
  ctx.with_tracer(tracer);

  const sv::ExecutionPlan plan = small_plan();
  sv::StateVector<double> state(plan.num_qubits);
  sv::run_plan(state, plan, {}, ctx);

  const auto spans = tracer.collect();
  ASSERT_FALSE(spans.empty());
  bool saw_kernel = false;
  for (const auto& s : spans)
    saw_kernel = saw_kernel || s.category == obs::SpanCategory::Kernel;
  EXPECT_TRUE(saw_kernel);
}

TEST(ExecutionContext, WithProfilerNullSuppressesInstalledProfiler) {
  obs::Profiler profiler;
  profiler.install();
  const sv::ExecutionPlan plan = small_plan();

  ExecutionContext quiet;
  quiet.with_profiler(nullptr);
  sv::StateVector<double> state(plan.num_qubits);
  sv::run_plan(state, plan, {}, quiet);
  EXPECT_EQ(profiler.runs_recorded(), 0u);

  // The default context follows the installed profiler dynamically.
  sv::StateVector<double> state2(plan.num_qubits);
  sv::run_plan(state2, plan);
  EXPECT_EQ(profiler.runs_recorded(), 1u);
  profiler.uninstall();
}

TEST(ExecutionContext, PinnedProfilerRecordsWithoutInstall) {
  obs::Profiler profiler;  // never installed process-wide
  ExecutionContext ctx;
  ctx.with_profiler(&profiler);

  const sv::ExecutionPlan plan = small_plan();
  sv::StateVector<double> state(plan.num_qubits);
  sv::run_plan(state, plan, {}, ctx);
  EXPECT_EQ(profiler.runs_recorded(), 1u);
  ASSERT_EQ(profiler.runs().size(), 1u);
  EXPECT_EQ(profiler.runs()[0].phases.size(), plan.phases.size());
}

TEST(ExecutionContext, PoolOverrideIsUsedForResolution) {
  ThreadPool mine(1);
  ExecutionContext ctx;
  ctx.with_pool(mine);
  EXPECT_EQ(&ctx.pool(), &mine);
  EXPECT_EQ(ctx.pool().num_threads(), 1u);
}

}  // namespace
}  // namespace svsim
