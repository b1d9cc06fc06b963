#include "dist/dist_sim.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dist/timeline.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "perf/perf_simulator.hpp"

namespace svsim::dist {

using machine::ExecConfig;
using machine::MachineSpec;

namespace {

/// Publishes what one plan-timing evaluation modeled. Handles resolve per
/// call against the context's registry — caching them in function-local
/// statics pinned the first registry forever (the stale-handle bug; see
/// tests/test_context.cpp).
void record_plan_metrics(obs::MetricsRegistry& registry, std::size_t exchanges,
                         double exchange_bytes) {
  registry.counter("dist.plan_evals").increment();
  registry.counter("dist.exchanges").add(exchanges);
  registry.counter("dist.exchange_bytes")
      .add(static_cast<std::uint64_t>(exchange_bytes));
}

}  // namespace

DistTiming time_plan(const sv::ExecutionPlan& plan, const MachineSpec& m,
                     const ExecConfig& config, const InterconnectSpec& net,
                     const ExecutionContext& ctx) {
  obs::ScopedSpan span("time_plan", obs::SpanCategory::Collective,
                       ctx.tracer());
  const perf::PlanCost cost = perf::cost_plan(plan, m, config, ctx);

  DistTiming t;
  t.compute_seconds = cost.compute_seconds;
  obs::Profiler* const prof = ctx.profiler();
  for (std::size_t i = 0; i < plan.phases.size(); ++i) {
    const auto& phase = plan.phases[i];
    if (phase.kind != sv::PhaseKind::Exchange) continue;
    std::vector<double> hop_seconds;
    hop_seconds.reserve(phase.hops.size());
    for (const auto& hop : phase.hops) {
      const double comm = net.pairwise_exchange_seconds(hop.bytes);
      hop_seconds.push_back(comm);
      t.comm_seconds += comm;
      ++t.num_exchanges;
      t.exchange_bytes += hop.bytes;
    }
    // Attach the modeled wire time to the profiler's matching Exchange
    // sample (simulated runs move amplitudes locally; this is what the
    // phase would cost on the real interconnect).
    if (prof != nullptr && !hop_seconds.empty())
      prof->annotate_exchange(static_cast<std::uint32_t>(i), hop_seconds);
  }
  t.total_seconds = t.compute_seconds + t.comm_seconds;
  t.pipelined_seconds = std::max(t.compute_seconds, t.comm_seconds);
  span.set_bytes(static_cast<std::uint64_t>(t.exchange_bytes));
  record_plan_metrics(ctx.metrics(), t.num_exchanges, t.exchange_bytes);
  return t;
}

double event_driven_makespan(const sv::ExecutionPlan& plan,
                             const MachineSpec& m, const ExecConfig& config,
                             const InterconnectSpec& net,
                             const StragglerConfig& straggler,
                             TimelineBuilder* timeline) {
  obs::ScopedSpan span("makespan", obs::SpanCategory::Collective);
  const std::uint64_t nodes = plan.num_ranks();
  if (nodes > kMakespanMaxRanks)
    throw Error("event_driven_makespan: plan " + plan.summary_id() +
                " spans " + std::to_string(nodes) +
                " ranks, above the per-rank simulation cap of " +
                std::to_string(kMakespanMaxRanks));
  const perf::PlanCost cost = perf::cost_plan(plan, m, config);
  SVSIM_ASSERT(cost.phases.size() == plan.phases.size());
  std::vector<double> clock(nodes, 0.0);

  for (std::size_t i = 0; i < plan.phases.size(); ++i) {
    const sv::PlanPhase& phase = plan.phases[i];
    const auto pidx = static_cast<std::uint32_t>(i);
    if (phase.kind == sv::PhaseKind::Exchange) {
      // Each hop is a rendezvous: both partners must arrive, then pay the
      // wire time together (data must land before the next window runs).
      for (std::size_t h = 0; h < phase.hops.size(); ++h) {
        const sv::ExchangeHop& hop = phase.hops[h];
        if (hop.rank_bit < 0) continue;
        double fixed = 0.0;
        double transfer = 0.0;
        net.pairwise_exchange_split(hop.bytes, fixed, transfer);
        const double comm = fixed + transfer;
        const std::uint64_t mask = std::uint64_t{1}
                                   << static_cast<unsigned>(hop.rank_bit);
        for (std::uint64_t r = 0; r < nodes; ++r) {
          const std::uint64_t partner = r ^ mask;
          if (partner < r) continue;  // each pair once
          if (timeline != nullptr)
            timeline->on_exchange(r, partner, pidx,
                                  static_cast<std::uint32_t>(h), hop.rank_bit,
                                  hop.bytes, fixed, transfer, clock[r],
                                  clock[partner]);
          const double ready = std::max(clock[r], clock[partner]) + comm;
          clock[r] = ready;
          clock[partner] = ready;
        }
      }
      continue;
    }
    const double base = cost.phases[i].seconds;
    if (base == 0.0) continue;
    const auto gates = static_cast<std::uint32_t>(phase.gates.size());
    for (std::uint64_t r = 0; r < nodes; ++r) {
      double compute = base;
      if (r == straggler.node) compute *= straggler.slowdown;
      if (timeline != nullptr)
        timeline->on_compute(r, pidx, phase.kind, gates, clock[r], compute);
      clock[r] += compute;
    }
  }
  return *std::max_element(clock.begin(), clock.end());
}

}  // namespace svsim::dist
