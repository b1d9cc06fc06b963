// Timing a distributed ExecutionPlan: BSP aggregate and event-driven
// timelines.
//
// Both models walk the shared ExecutionPlan IR (sv/plan.hpp): per-phase
// local compute comes from perf::cost_plan (the single-node performance
// model applied to the rank partition, including the one-traversal pricing
// of LocalSweep phases) and exchange time from the interconnect model
// applied to each Exchange hop. The BSP estimate sums the two streams; the
// pipelined bound overlaps them. The event-driven simulator keeps one clock
// per node and synchronizes partner pairs at each hop (rendezvous
// semantics), which is what lets a straggling node's delay propagate
// through the exchange pattern — the effect large-machine studies care
// about and a mean-field BSP sum hides. Plans come from
// dist::compile_distributed (dist/dist_plan.hpp), the one distributed
// compiler; model-only studies compile with restore_layout = false.
#pragma once

#include <cstdint>

#include "dist/dist_plan.hpp"
#include "dist/interconnect.hpp"
#include "machine/exec_config.hpp"
#include "machine/machine_spec.hpp"
#include "obs/context.hpp"
#include "sv/plan.hpp"

namespace svsim::dist {

struct DistTiming {
  double compute_seconds = 0.0;   ///< Σ per-phase local kernel time
  double comm_seconds = 0.0;      ///< Σ per-hop exchange time
  double total_seconds = 0.0;     ///< BSP: compute + comm (no overlap)
  double pipelined_seconds = 0.0; ///< max(compute, comm): full-overlap bound
  std::size_t num_exchanges = 0;  ///< pairwise hops priced
  double exchange_bytes = 0.0;    ///< per node, total
};

/// Times `plan` with each node modeled as `m` under `config`. Spans,
/// counters, and the profiler exchange annotations resolve through `ctx`
/// (default: the process-wide singletons).
DistTiming time_plan(const sv::ExecutionPlan& plan,
                     const machine::MachineSpec& m,
                     const machine::ExecConfig& config,
                     const InterconnectSpec& net,
                     const ExecutionContext& ctx = ExecutionContext::global());

struct StragglerConfig {
  /// Node whose compute time is scaled (UINT64_MAX = none).
  std::uint64_t node = ~std::uint64_t{0};
  double slowdown = 1.0;
};

/// Observer of the makespan simulation (dist/timeline.hpp). Forward
/// declared so passing nullptr costs nothing and the header stays light.
class TimelineBuilder;

/// event_driven_makespan keeps one clock (and, with a recorder, an event
/// list) per simulated rank; plans wider than this are refused with a
/// structured Error naming the plan and its rank count.
inline constexpr std::uint64_t kMakespanMaxRanks = std::uint64_t{1} << 22;

/// Event-driven makespan: per-node clocks, rendezvous at each exchange hop.
/// Without a straggler this equals the BSP total (all nodes identical);
/// with one it shows how the delay spreads through the exchange pattern.
/// A non-null `timeline` records every scheduled interval (the recorder
/// does not perturb the result — clocks are computed identically with and
/// without it); use dist::record_timeline for the packaged entry point.
double event_driven_makespan(const sv::ExecutionPlan& plan,
                             const machine::MachineSpec& m,
                             const machine::ExecConfig& config,
                             const InterconnectSpec& net,
                             const StragglerConfig& straggler = {},
                             TimelineBuilder* timeline = nullptr);

}  // namespace svsim::dist
