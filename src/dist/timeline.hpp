// Per-rank timeline recording for the distributed timer.
//
// dist::time_plan keeps one clock per rank when a straggler or recorder is
// given, but returns only the makespan. A TimelineBuilder handed to it
// rides that walk and keeps every scheduled interval:
//
//   Compute — a LocalSweep / DenseGate / MeasureFlush phase executing on
//             the rank's 2^local_qubits partition;
//   Wire    — one pairwise Exchange hop (partner rank, rank bit, bytes,
//             and the fixed-vs-transfer cost split of the interconnect);
//   Wait    — the idle gap a rank spends parked at a rendezvous for a
//             late partner (the straggler-propagation signal).
//
// The resulting Timeline tiles every rank's axis [0, rank end]: each
// event starts where the previous one ends, Compute/Wire ends re-derive
// the timer's clock values bit-exactly (`start + duration` is the
// same floating-point expression the timer evaluated), and matched
// Wire events carry each other's index (`partner_event`). Those three
// properties are what let perf/critical_path.hpp walk the dependency DAG
// backward from the finishing event and prove its path sum equals the
// makespan, and what lets the what-if replay re-price the timeline under
// scaled knobs with a bit-exact identity at scale 1.0.
//
// Layering note: the data types here are deliberately header-only plain
// structs. The critical-path / what-if analysis lives in perf — *below*
// dist in the link order — and reads Timeline objects without linking any
// dist code. Recording (TimelineBuilder internals, record_timeline, the
// Chrome export) is implemented in timeline.cpp and only reachable from
// dist and the tools above it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dist/dist_sim.hpp"
#include "sv/plan.hpp"

namespace svsim::dist {

enum class TimelineEventKind : std::uint8_t { Compute, Wire, Wait };

/// Stable lowercase name ("compute", "wire", "wait") — the vocabulary of
/// the timeline JSON schema (`scripts/check_schema.py timeline`).
inline const char* timeline_event_kind_name(TimelineEventKind kind) {
  switch (kind) {
    case TimelineEventKind::Compute: return "compute";
    case TimelineEventKind::Wire: return "wire";
    case TimelineEventKind::Wait: return "wait";
  }
  return "?";
}

/// Sentinel for TimelineEvent::partner_event on non-Wire events.
inline constexpr std::uint32_t kNoPartnerEvent = ~std::uint32_t{0};

struct TimelineEvent {
  TimelineEventKind kind = TimelineEventKind::Compute;
  /// Plan phase this interval belongs to (Wait: the Exchange phase whose
  /// rendezvous caused the stall).
  sv::PhaseKind phase_kind = sv::PhaseKind::DenseGate;
  std::uint32_t phase_index = 0;
  /// Wire/Wait: hop index within the Exchange phase.
  std::uint32_t hop_index = 0;
  /// Compute: gates the phase applies (0 for free phases is impossible —
  /// zero-cost phases record no event at all).
  std::uint32_t gates = 0;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;

  // Wire/Wait only ------------------------------------------------------
  /// The partner rank across the hop (Wait: the rank being waited for).
  std::uint64_t partner = 0;
  int rank_bit = -1;
  double bytes = 0.0;
  /// Interconnect cost split: duration == fixed + transfer for Wire.
  double fixed_seconds = 0.0;
  double transfer_seconds = 0.0;
  /// Wire: index of the matching Wire event in the partner rank's event
  /// list; kNoPartnerEvent otherwise.
  std::uint32_t partner_event = kNoPartnerEvent;

  /// End of the interval. For Compute/Wire this is bit-exactly the clock
  /// value time_plan's per-rank walk assigned (same FP expression).
  double end_seconds() const noexcept { return start_seconds + duration_seconds; }
};

struct RankTimeline {
  std::uint64_t rank = 0;
  /// Chronological; tiles [0, end_seconds] with no gaps (Wait events fill
  /// rendezvous stalls).
  std::vector<TimelineEvent> events;
  /// The rank's final clock value.
  double end_seconds = 0.0;
  // Per-kind sums over `events`, filled by TimelineBuilder::finish().
  double compute_seconds = 0.0;
  double wire_seconds = 0.0;
  double wait_seconds = 0.0;

  double busy_seconds() const noexcept {
    return compute_seconds + wire_seconds;
  }
};

/// record_timeline refuses plans wider than this: the recorder keeps every
/// event of every rank in memory, a much heavier footprint than
/// time_plan's one clock per rank (see kMakespanMaxRanks).
inline constexpr std::uint64_t kTimelineMaxRanks = std::uint64_t{1} << 12;

struct Timeline {
  // Provenance ----------------------------------------------------------
  std::string plan_id;  ///< sv::ExecutionPlan::summary_id()
  unsigned num_qubits = 0;
  unsigned node_qubits = 0;
  unsigned local_qubits = 0;
  unsigned block_qubits = 0;
  std::size_t num_phases = 0;
  std::string machine_name;
  std::string interconnect_name;

  /// time_plan's makespan_seconds == max over rank ends.
  double makespan_seconds = 0.0;
  std::vector<RankTimeline> ranks;

  std::size_t num_ranks() const noexcept { return ranks.size(); }
  std::size_t total_events() const noexcept {
    std::size_t n = 0;
    for (const auto& r : ranks) n += r.events.size();
    return n;
  }
  /// Rank-skew figure: max busy time / mean busy time (busy = compute +
  /// wire). 1.0 = perfectly balanced; 0 when no rank did any work.
  double imbalance() const noexcept {
    if (ranks.empty()) return 0.0;
    double max_busy = 0.0;
    double sum_busy = 0.0;
    for (const auto& r : ranks) {
      const double busy = r.busy_seconds();
      if (busy > max_busy) max_busy = busy;
      sum_busy += busy;
    }
    if (sum_busy <= 0.0) return 0.0;
    return max_busy / (sum_busy / static_cast<double>(ranks.size()));
  }
  /// Fraction of total rank-seconds spent on the wire: Σ wire /
  /// (ranks x makespan). 0 when the makespan is zero.
  double wire_utilization() const noexcept {
    if (ranks.empty() || makespan_seconds <= 0.0) return 0.0;
    double wire = 0.0;
    for (const auto& r : ranks) wire += r.wire_seconds;
    return wire / (static_cast<double>(ranks.size()) * makespan_seconds);
  }
};

/// Recorder handed to dist::time_plan. The timer stays the clock
/// authority: it passes the exact arrival clocks and cost terms it uses,
/// and the builder re-derives starts/ends with the same FP expressions so
/// recorded intervals match the returned makespan bit-exactly.
class TimelineBuilder {
 public:
  TimelineBuilder(const sv::ExecutionPlan& plan, std::string machine_name,
                  std::string interconnect_name);

  /// One compute phase on `rank`: interval [start, start + duration).
  void on_compute(std::uint64_t rank, std::uint32_t phase_index,
                  sv::PhaseKind kind, std::uint32_t gates, double start,
                  double duration);

  /// One pairwise hop between `rank_a` and `rank_b` arriving at clocks
  /// `arrive_a` / `arrive_b`. Appends a Wait to the early rank (gap to the
  /// rendezvous) and a matched Wire pair of duration fixed + transfer.
  void on_exchange(std::uint64_t rank_a, std::uint64_t rank_b,
                   std::uint32_t phase_index, std::uint32_t hop_index,
                   int rank_bit, double bytes, double fixed, double transfer,
                   double arrive_a, double arrive_b);

  /// Seals the timeline: records the makespan, computes per-rank sums.
  Timeline finish(double makespan_seconds);

 private:
  Timeline timeline_;
  bool finished_ = false;
};

/// Runs dist::time_plan with a recorder attached and returns the full
/// per-rank timeline. Publishes dist.timeline.* metrics
/// (records/events counters, imbalance/wire_utilization/makespan gauges)
/// into `ctx`'s registry and records its span into `ctx`'s tracer.
/// Throws svsim::Error when the plan spans more than kTimelineMaxRanks.
Timeline record_timeline(const sv::ExecutionPlan& plan,
                         const machine::MachineSpec& m,
                         const machine::ExecConfig& config,
                         const InterconnectSpec& net,
                         const StragglerConfig& straggler = {},
                         const ExecutionContext& ctx =
                             ExecutionContext::global());

/// Chrome trace (chrome://tracing / Perfetto) export: pid 3 holds one lane
/// per rank (compute + wait intervals), pid 4 one lane per exchanged rank
/// bit carrying the wire intervals. Pids 0-2 are left to the profiler
/// overlay (obs/profile.hpp) so the two traces can be concatenated into
/// one view.
void write_timeline_chrome_json(std::ostream& os, const Timeline& timeline);

}  // namespace svsim::dist
