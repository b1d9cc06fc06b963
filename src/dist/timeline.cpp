#include "dist/timeline.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace svsim::dist {

TimelineBuilder::TimelineBuilder(const sv::ExecutionPlan& plan,
                                 std::string machine_name,
                                 std::string interconnect_name) {
  timeline_.plan_id = plan.summary_id();
  timeline_.num_qubits = plan.num_qubits;
  timeline_.node_qubits = plan.node_qubits;
  timeline_.local_qubits = plan.local_qubits;
  timeline_.block_qubits = plan.block_qubits;
  timeline_.num_phases = plan.phases.size();
  timeline_.machine_name = std::move(machine_name);
  timeline_.interconnect_name = std::move(interconnect_name);
  timeline_.ranks.resize(plan.num_ranks());
  for (std::size_t r = 0; r < timeline_.ranks.size(); ++r)
    timeline_.ranks[r].rank = r;
}

void TimelineBuilder::on_compute(std::uint64_t rank, std::uint32_t phase_index,
                                 sv::PhaseKind kind, std::uint32_t gates,
                                 double start, double duration) {
  SVSIM_ASSERT(!finished_ && rank < timeline_.ranks.size());
  RankTimeline& rt = timeline_.ranks[rank];
  // Compute starts exactly at the rank's clock: ranks never idle between
  // compute phases, only at exchange rendezvous.
  SVSIM_ASSERT(start == rt.end_seconds);
  TimelineEvent e;
  e.kind = TimelineEventKind::Compute;
  e.phase_kind = kind;
  e.phase_index = phase_index;
  e.gates = gates;
  e.start_seconds = start;
  e.duration_seconds = duration;
  rt.events.push_back(e);
  rt.end_seconds = e.end_seconds();
}

void TimelineBuilder::on_exchange(std::uint64_t rank_a, std::uint64_t rank_b,
                                  std::uint32_t phase_index,
                                  std::uint32_t hop_index, int rank_bit,
                                  double bytes, double fixed, double transfer,
                                  double arrive_a, double arrive_b) {
  SVSIM_ASSERT(!finished_ && rank_a < timeline_.ranks.size() &&
               rank_b < timeline_.ranks.size() && rank_a != rank_b);
  RankTimeline& a = timeline_.ranks[rank_a];
  RankTimeline& b = timeline_.ranks[rank_b];
  SVSIM_ASSERT(arrive_a == a.end_seconds && arrive_b == b.end_seconds);
  const double start = std::max(arrive_a, arrive_b);

  // The early rank parks until the rendezvous; record the idle gap. The
  // wait's duration is a subtraction (one rounding), so the stored
  // end_seconds is advanced to `start` directly — Compute/Wire timing
  // stays an exact re-derivation of the timer's clock chain while
  // waits tile the axis to visual precision.
  auto park = [&](RankTimeline& rt, std::uint64_t other, double arrive) {
    if (arrive >= start) return;
    TimelineEvent w;
    w.kind = TimelineEventKind::Wait;
    w.phase_kind = sv::PhaseKind::Exchange;
    w.phase_index = phase_index;
    w.hop_index = hop_index;
    w.partner = other;
    w.rank_bit = rank_bit;
    w.start_seconds = arrive;
    w.duration_seconds = start - arrive;
    rt.events.push_back(w);
    rt.end_seconds = start;
  };
  park(a, rank_b, arrive_a);
  park(b, rank_a, arrive_b);

  auto wire = [&](std::uint64_t other, std::uint32_t partner_event) {
    TimelineEvent e;
    e.kind = TimelineEventKind::Wire;
    e.phase_kind = sv::PhaseKind::Exchange;
    e.phase_index = phase_index;
    e.hop_index = hop_index;
    e.partner = other;
    e.rank_bit = rank_bit;
    e.bytes = bytes;
    e.fixed_seconds = fixed;
    e.transfer_seconds = transfer;
    e.partner_event = partner_event;
    e.start_seconds = start;
    // Same expression as time_plan's `comm`: end re-derives `ready`.
    e.duration_seconds = fixed + transfer;
    return e;
  };
  const auto ia = static_cast<std::uint32_t>(a.events.size());
  const auto ib = static_cast<std::uint32_t>(b.events.size());
  a.events.push_back(wire(rank_b, ib));
  b.events.push_back(wire(rank_a, ia));
  const double ready = a.events.back().end_seconds();
  a.end_seconds = ready;
  b.end_seconds = ready;
}

Timeline TimelineBuilder::finish(double makespan_seconds) {
  SVSIM_ASSERT(!finished_);
  finished_ = true;
  timeline_.makespan_seconds = makespan_seconds;
  for (RankTimeline& rt : timeline_.ranks) {
    rt.compute_seconds = rt.wire_seconds = rt.wait_seconds = 0.0;
    for (const TimelineEvent& e : rt.events) {
      switch (e.kind) {
        case TimelineEventKind::Compute: rt.compute_seconds += e.duration_seconds; break;
        case TimelineEventKind::Wire: rt.wire_seconds += e.duration_seconds; break;
        case TimelineEventKind::Wait: rt.wait_seconds += e.duration_seconds; break;
      }
    }
  }
  return std::move(timeline_);
}

namespace {

// Handles resolve per call against the context's registry; function-local
// statics here used to pin the first registry forever (stale after a
// registry substitution — see tests/test_context.cpp).
void record_timeline_metrics(obs::MetricsRegistry& registry,
                             const Timeline& t) {
  registry.counter("dist.timeline.records").increment();
  registry.counter("dist.timeline.events").add(t.total_events());
  registry.gauge("dist.timeline.imbalance").set(t.imbalance());
  registry.gauge("dist.timeline.wire_utilization").set(t.wire_utilization());
  registry.gauge("dist.timeline.makespan_seconds").set(t.makespan_seconds);
}

}  // namespace

Timeline record_timeline(const sv::ExecutionPlan& plan,
                         const machine::MachineSpec& m,
                         const machine::ExecConfig& config,
                         const InterconnectSpec& net,
                         const StragglerConfig& straggler,
                         const ExecutionContext& ctx) {
  obs::ScopedSpan span("record_timeline", obs::SpanCategory::Collective,
                       ctx.tracer());
  const std::uint64_t nodes = plan.num_ranks();
  if (nodes > kTimelineMaxRanks)
    throw Error("record_timeline: plan " + plan.summary_id() + " spans " +
                std::to_string(nodes) +
                " ranks, above the timeline recorder cap of " +
                std::to_string(kTimelineMaxRanks) +
                " (time it with dist::time_plan, which keeps no events)");
  TimelineBuilder builder(plan, m.name, net.name);
  const DistTiming timing =
      time_plan(plan, m, config, net, straggler, &builder, ctx);
  Timeline t = builder.finish(timing.makespan_seconds);
  record_timeline_metrics(ctx.metrics(), t);
  return t;
}

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void write_timeline_chrome_json(std::ostream& os, const Timeline& t) {
  // Pids 0-2 belong to the profiler overlay (tracer spans / phase lanes /
  // modeled hop lanes); the rank timeline claims 3 and the wire view 4 so
  // both traces compose into one chrome://tracing load.
  constexpr int kRankPid = 3;
  constexpr int kWirePid = 4;
  os.precision(15);
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kRankPid
     << ",\"args\":{\"name\":\"timeline ranks (" << t.ranks.size() << " x "
     << t.local_qubits << "q local)\"}},\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kWirePid
     << ",\"args\":{\"name\":\"timeline wire (per rank bit)\"}}";
  for (const RankTimeline& rt : t.ranks) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kRankPid
       << ",\"tid\":" << rt.rank << ",\"args\":{\"name\":\"rank " << rt.rank
       << "\"}}";
    for (const TimelineEvent& e : rt.events) {
      const double ts_us = e.start_seconds * 1e6;
      const double dur_us = e.duration_seconds * 1e6;
      os << ",\n{\"name\":";
      if (e.kind == TimelineEventKind::Compute)
        write_json_string(os, sv::phase_kind_name(e.phase_kind));
      else
        write_json_string(os, timeline_event_kind_name(e.kind));
      os << ",\"ph\":\"X\",\"pid\":" << kRankPid << ",\"tid\":" << rt.rank
         << ",\"ts\":" << ts_us << ",\"dur\":" << dur_us << ",\"args\":{"
         << "\"phase\":" << e.phase_index;
      if (e.kind == TimelineEventKind::Compute) {
        os << ",\"gates\":" << e.gates;
      } else {
        os << ",\"hop\":" << e.hop_index << ",\"partner\":" << e.partner
           << ",\"rank_bit\":" << e.rank_bit;
        if (e.kind == TimelineEventKind::Wire) os << ",\"bytes\":" << e.bytes;
      }
      os << "}}";
      // The wire lane shows each hop once (from the lower-numbered rank).
      if (e.kind == TimelineEventKind::Wire && rt.rank < e.partner) {
        os << ",\n{\"name\":\"wire b" << e.rank_bit
           << "\",\"ph\":\"X\",\"pid\":" << kWirePid
           << ",\"tid\":" << e.rank_bit << ",\"ts\":" << ts_us
           << ",\"dur\":" << dur_us << ",\"args\":{\"src\":" << rt.rank
           << ",\"dst\":" << e.partner << ",\"bytes\":" << e.bytes
           << ",\"phase\":" << e.phase_index << "}}";
      }
    }
  }
  os << "\n]}\n";
}

}  // namespace svsim::dist
