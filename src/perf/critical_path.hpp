// Critical-path attribution and what-if sensitivity over a recorded
// distributed timeline (dist/timeline.hpp).
//
// A Timeline is a dependency DAG in disguise: each event's predecessor is
// the previous real event on its own rank, and a Wire event additionally
// depends on the partner rank's matching Wire and everything before it.
// extract_critical_path walks that DAG backward from the finishing event,
// always following the predecessor that actually gated the start (the
// later arrival at a rendezvous), and splits the makespan into compute /
// wire / wait seconds along the one chain that could not have run any
// earlier. Because recorded intervals re-derive the simulator's clock
// chain with the same floating-point expressions, the chronological sum of
// step durations equals the makespan *bit-exactly* — the invariant the
// tests and the JSON schema checker pin.
//
// The what-if layer re-prices the same recorded DAG under scaled knobs
// (compute throughput, link bandwidth, link latency) without re-running
// the plan compiler or cost model: replay_timeline replays the rendezvous
// schedule with each Compute duration divided by compute_scale and each
// Wire re-priced as fixed * latency_scale + transfer / bandwidth_scale.
// At all-1.0 knobs the replay reproduces the recorded makespan bit-exactly
// (x * 1.0 and x / 1.0 are exact in IEEE arithmetic and the replay
// evaluates the same expressions in the same order). Rank-count and
// whole-machine scenarios need recompilation/re-recording and live in the
// CLI, which has the circuit in hand.
//
// This module reads dist/timeline.hpp's header-only data types but links
// no dist code — perf sits below dist in the layering (dist consumes
// perf::cost_plan), and the one-way include keeps it that way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "dist/timeline.hpp"

namespace svsim::perf {

/// One event on the critical path, in chronological order.
struct CriticalPathStep {
  std::uint64_t rank = 0;
  std::uint32_t event_index = 0;  ///< into Timeline::ranks[rank].events
  dist::TimelineEventKind kind = dist::TimelineEventKind::Compute;
  sv::PhaseKind phase_kind = sv::PhaseKind::DenseGate;
  std::uint32_t phase_index = 0;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Whole-timeline split for one rank: compute + wire + wait + slack spans
/// the makespan (slack = time after the rank's last event).
struct RankAttribution {
  std::uint64_t rank = 0;
  double compute_seconds = 0.0;
  double wire_seconds = 0.0;
  double wait_seconds = 0.0;
  double slack_seconds = 0.0;
  /// Seconds of the critical path spent on this rank's events.
  double critical_seconds = 0.0;

  double busy_seconds() const noexcept {
    return compute_seconds + wire_seconds;
  }
};

/// Slack histogram resolution: bucket i holds ranks with slack-fraction
/// (slack / makespan) in [i/N, (i+1)/N).
inline constexpr std::size_t kSlackHistogramBuckets = 10;

struct CriticalPath {
  double makespan_seconds = 0.0;
  /// Chronological sum of step durations; equals makespan_seconds
  /// bit-exactly (the recorder invariant).
  double path_seconds = 0.0;
  // Per-kind split along the path (sums to path_seconds up to rounding).
  double compute_seconds = 0.0;
  double wire_seconds = 0.0;
  double wait_seconds = 0.0;
  std::vector<CriticalPathStep> steps;  ///< chronological
  std::vector<RankAttribution> ranks;
  double imbalance = 0.0;         ///< Timeline::imbalance()
  double wire_utilization = 0.0;  ///< Timeline::wire_utilization()
  /// Rank counts by slack fraction of the makespan.
  std::vector<std::uint64_t> slack_histogram;

  double compute_fraction() const noexcept {
    return path_seconds > 0.0 ? compute_seconds / path_seconds : 0.0;
  }
  double wire_fraction() const noexcept {
    return path_seconds > 0.0 ? wire_seconds / path_seconds : 0.0;
  }
};

/// Walks the timeline's dependency DAG backward from the finishing event.
/// Wait events never appear as steps: a wait is the *symptom* of its late
/// partner, so the walk crosses to the partner's chain instead.
CriticalPath extract_critical_path(const dist::Timeline& timeline);

/// What-if knobs: re-price the recorded schedule under scaled resources.
struct WhatIfKnobs {
  std::string name = "baseline";
  double compute_scale = 1.0;         ///< >1 = faster nodes
  double link_bandwidth_scale = 1.0;  ///< >1 = fatter links
  double latency_scale = 1.0;         ///< <1 = lower fixed cost per hop
};

struct WhatIfResult {
  WhatIfKnobs knobs;
  double makespan_seconds = 0.0;
  double baseline_seconds = 0.0;  ///< the recorded timeline's makespan
  double speedup() const noexcept {
    return makespan_seconds > 0.0 ? baseline_seconds / makespan_seconds : 0.0;
  }
};

/// Replays the recorded event schedule under `knobs`: same rendezvous
/// structure, re-priced durations. All-1.0 knobs reproduce the recorded
/// makespan bit-exactly. Throws Error if the timeline's partner indices
/// are inconsistent (cannot happen for TimelineBuilder output).
WhatIfResult replay_timeline(const dist::Timeline& timeline,
                             const WhatIfKnobs& knobs);

/// The standard sensitivity sweep: baseline, 2x compute, 2x link
/// bandwidth, 1/2 latency, and 2x everything.
std::vector<WhatIfKnobs> default_whatif_scenarios();

/// replay_timeline over each scenario, in order.
std::vector<WhatIfResult> whatif_sensitivity(
    const dist::Timeline& timeline,
    const std::vector<WhatIfKnobs>& scenarios = default_whatif_scenarios());

/// Headline figures: makespan, path split, imbalance, wire utilization.
Table timeline_summary_table(const dist::Timeline& timeline,
                             const CriticalPath& path);
/// Per-rank compute/wire/wait/slack/critical split (first `max_rows`).
Table rank_attribution_table(const CriticalPath& path,
                             std::size_t max_rows = 16);
/// The `top_n` longest critical-path steps, by duration.
Table critical_path_table(const CriticalPath& path, std::size_t top_n = 12);
/// One row per what-if scenario with re-priced makespan and speedup.
Table whatif_table(const std::vector<WhatIfResult>& results);

/// The timeline.json artifact (version 1): plan/provenance block, per-rank
/// event lists, critical path with attribution, and what-if results.
/// `scripts/check_schema.py timeline` validates this shape.
void write_timeline_json(const dist::Timeline& timeline,
                         const CriticalPath& path,
                         const std::vector<WhatIfResult>& whatif,
                         std::ostream& os);

}  // namespace svsim::perf
