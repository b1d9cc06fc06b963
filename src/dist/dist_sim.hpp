// Timing a distributed ExecutionPlan: one walk, BSP sums and per-rank
// clocks.
//
// `time_plan` walks the shared ExecutionPlan IR (sv/plan.hpp) once: per-
// phase local compute comes from perf::cost_plan (the single-node
// performance model applied to the rank partition, including the one-
// traversal pricing of LocalSweep phases) and exchange time from the
// interconnect model applied to each Exchange hop. The BSP estimate sums
// the two streams; the pipelined bound overlaps them.
//
// The makespan is the event-driven view of the same walk: one clock per
// node, partner pairs synchronizing at each hop (rendezvous semantics),
// which is what lets a straggling node's delay propagate through the
// exchange pattern — the effect large-machine studies care about and a
// mean-field BSP sum hides. With every node identical the clocks stay in
// lockstep and the makespan is the BSP total (the zero-skew case), so the
// per-rank clocks run only when a straggler or a timeline recorder is
// given. Plans come from
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

struct StragglerConfig {
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  /// Node whose compute time is scaled (kNone = no straggler).
  std::uint64_t node = kNone;
  double slowdown = 1.0;

  bool active() const noexcept { return node != kNone; }
};

struct DistTiming {
  double compute_seconds = 0.0;   ///< Σ per-phase local kernel time
  double comm_seconds = 0.0;      ///< Σ per-hop exchange time
  double total_seconds = 0.0;     ///< BSP: compute + comm (no overlap)
  double pipelined_seconds = 0.0; ///< max(compute, comm): full-overlap bound
  /// Event-driven makespan: the latest per-rank clock. Equals
  /// total_seconds unless a straggler or recorder made the clocks run.
  double makespan_seconds = 0.0;
  std::size_t num_exchanges = 0;  ///< pairwise hops priced
  double exchange_bytes = 0.0;    ///< per node, total
};

/// Observer of the per-rank walk (dist/timeline.hpp). Forward declared so
/// passing nullptr costs nothing and the header stays light.
class TimelineBuilder;

/// The per-rank walk keeps one clock (and, with a recorder, an event list)
/// per simulated rank; when it runs, plans wider than this are refused
/// with a structured Error naming the plan and its rank count.
inline constexpr std::uint64_t kMakespanMaxRanks = std::uint64_t{1} << 22;

/// Times `plan` with each node modeled as `m` under `config`. An active
/// `straggler` or a non-null `timeline` runs the per-rank clocks; the
/// recorder sees every scheduled interval and does not perturb the result
/// (use dist::record_timeline for the packaged entry point). Spans,
/// counters, and the profiler exchange annotations resolve through `ctx`
/// (default: the process-wide singletons).
DistTiming time_plan(const sv::ExecutionPlan& plan,
                     const machine::MachineSpec& m,
                     const machine::ExecConfig& config,
                     const InterconnectSpec& net,
                     const StragglerConfig& straggler = {},
                     TimelineBuilder* timeline = nullptr,
                     const ExecutionContext& ctx = ExecutionContext::global());

}  // namespace svsim::dist
