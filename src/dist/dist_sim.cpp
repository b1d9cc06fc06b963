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

DistTiming time_plan(const sv::ExecutionPlan& plan, const MachineSpec& m,
                     const ExecConfig& config, const InterconnectSpec& net,
                     const StragglerConfig& straggler,
                     TimelineBuilder* timeline, const ExecutionContext& ctx) {
  obs::ScopedSpan span("time_plan", obs::SpanCategory::Collective,
                       ctx.tracer());
  const bool per_rank = straggler.active() || timeline != nullptr;
  const std::uint64_t nodes = plan.num_ranks();
  if (per_rank && nodes > kMakespanMaxRanks)
    throw Error("time_plan: plan " + plan.summary_id() + " spans " +
                std::to_string(nodes) +
                " ranks, above the per-rank simulation cap of " +
                std::to_string(kMakespanMaxRanks));
  const perf::PlanCost cost = perf::cost_plan(plan, m, config, ctx);
  SVSIM_ASSERT(cost.phases.size() == plan.phases.size());
  std::vector<double> clock(per_rank ? nodes : 0, 0.0);

  DistTiming t;
  t.compute_seconds = cost.compute_seconds;
  obs::Profiler* const prof = ctx.profiler();
  for (std::size_t i = 0; i < plan.phases.size(); ++i) {
    const sv::PlanPhase& phase = plan.phases[i];
    const auto pidx = static_cast<std::uint32_t>(i);
    if (phase.kind != sv::PhaseKind::Exchange) {
      const double base = cost.phases[i].seconds;
      if (!per_rank || base == 0.0) continue;
      const auto gates = static_cast<std::uint32_t>(phase.gates.size());
      for (std::uint64_t r = 0; r < nodes; ++r) {
        double compute = base;
        if (r == straggler.node) compute *= straggler.slowdown;
        if (timeline != nullptr)
          timeline->on_compute(r, pidx, phase.kind, gates, clock[r], compute);
        clock[r] += compute;
      }
      continue;
    }
    std::vector<double> hop_seconds;
    hop_seconds.reserve(phase.hops.size());
    for (std::size_t h = 0; h < phase.hops.size(); ++h) {
      const sv::ExchangeHop& hop = phase.hops[h];
      double fixed = 0.0;
      double transfer = 0.0;
      net.pairwise_exchange_split(hop.bytes, fixed, transfer);
      const double comm = fixed + transfer;
      hop_seconds.push_back(comm);
      t.comm_seconds += comm;
      ++t.num_exchanges;
      t.exchange_bytes += hop.bytes;
      if (!per_rank || hop.rank_bit < 0) continue;
      // Each hop is a rendezvous: both partners must arrive, then pay the
      // wire time together (data must land before the next window runs).
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
    // Attach the modeled wire time to the profiler's matching Exchange
    // sample (simulated runs move amplitudes locally; this is what the
    // phase would cost on the real interconnect).
    if (prof != nullptr && !hop_seconds.empty())
      prof->annotate_exchange(pidx, hop_seconds);
  }
  t.total_seconds = t.compute_seconds + t.comm_seconds;
  t.pipelined_seconds = std::max(t.compute_seconds, t.comm_seconds);
  t.makespan_seconds =
      per_rank ? *std::max_element(clock.begin(), clock.end())
               : t.total_seconds;
  span.set_bytes(static_cast<std::uint64_t>(t.exchange_bytes));
  // Handles resolve per call against the context's registry; function-
  // local statics would pin the first registry forever (see
  // tests/test_context.cpp).
  obs::MetricsRegistry& registry = ctx.metrics();
  registry.counter("dist.plan_evals").increment();
  registry.counter("dist.exchanges").add(t.num_exchanges);
  registry.counter("dist.exchange_bytes")
      .add(static_cast<std::uint64_t>(t.exchange_bytes));
  return t;
}

}  // namespace svsim::dist
