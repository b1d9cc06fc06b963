#include "perf/profile_report.hpp"

#include <algorithm>
#include <ostream>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "machine/cpu_features.hpp"
#include "sv/simd/simd.hpp"

namespace svsim::perf {

namespace {

/// Minimal JSON string escape (machine names are plain identifiers; this
/// keeps the artifact valid even if one ever is not).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::vector<const PhaseProfile*> ProfileReport::by_measured_time() const {
  std::vector<const PhaseProfile*> order;
  order.reserve(phases.size());
  for (const PhaseProfile& p : phases) order.push_back(&p);
  std::stable_sort(order.begin(), order.end(),
                   [](const PhaseProfile* a, const PhaseProfile* b) {
                     return a->measured_seconds > b->measured_seconds;
                   });
  return order;
}

ProfileReport build_profile_report(const obs::RunProfile& run,
                                   const sv::ExecutionPlan& plan,
                                   const machine::MachineSpec& m,
                                   const machine::ExecConfig& config,
                                   const ExecutionContext& ctx) {
  require(run.phases.size() == plan.phases.size(),
          "build_profile_report: run samples do not match the plan's phases "
          "(was this run profiled against a different plan?)");

  const PlanCost cost = cost_plan(plan, m, config, ctx);
  SVSIM_ASSERT(cost.phases.size() == plan.phases.size());
  const machine::Placement placement = machine::place_threads(m, config);
  // Roofline footprint: one rank's partition (what the compute phases
  // actually traverse).
  const std::uint64_t footprint_bytes =
      pow2(plan.local_qubits) * std::uint64_t{2} * config.element_bytes;

  ProfileReport report;
  report.env.machine_name = m.name;
  report.env.threads = run.threads;
  report.env.num_qubits = plan.num_qubits;
  report.env.node_qubits = plan.node_qubits;
  report.env.local_qubits = plan.local_qubits;
  report.env.block_qubits = plan.block_qubits;
  report.env.simd_isa = machine::detected_isa_name();
  {
    const sv::simd::BackendInfo backend = sv::simd::active_backend();
    report.env.simd_backend = backend.name;
    report.env.simd_vector_bits = backend.vector_bits;
  }
  report.env.ranks = plan.num_ranks();
  report.env.declared_cache_budget_bytes = m.cache_budget_per_core_bytes();
  const machine::CacheProbeResult& probe = machine::probed_cache_budget();
  report.env.probe_valid = probe.valid;
  report.env.probed_cache_budget_bytes = probe.effective_bytes;
  report.env.cache_budget_disagreement =
      machine::cache_budget_disagreement(m, probe);
  report.env.cache_budget_warning =
      report.env.cache_budget_disagreement > machine::kCacheProbeWarnThreshold;

  report.measured_seconds = run.seconds();
  report.modeled_seconds = cost.compute_seconds;
  report.partial = run.partial;

  double measured_phase_seconds = 0.0;
  for (std::size_t i = 0; i < plan.phases.size(); ++i) {
    const obs::PhaseSample& sample = run.phases[i];
    const PhaseCost& modeled = cost.phases[i];
    require(sample.index == i,
            "build_profile_report: phase samples out of order");

    PhaseProfile p;
    p.index = i;
    p.kind = plan.phases[i].kind;
    p.kernel = modeled.kernel;
    p.gates = sample.gates;
    p.hops = sample.hops;
    p.measured_seconds = sample.seconds();
    p.modeled_seconds = modeled.seconds;
    p.measured_bytes = static_cast<double>(sample.bytes);
    p.modeled_bytes = modeled.bytes;
    p.flops = modeled.flops;
    p.exchange_bytes = modeled.exchange_bytes;
    p.sim_exchange_seconds = sample.sim_exchange_seconds();
    p.hw = sample.hw;
    p.dropped_spans = sample.dropped_spans;
    p.threads = sample.threads;
    if (p.kind != sv::PhaseKind::Exchange) {
      p.roofline = machine::place_on_roofline(
          m, placement, config, modeled.flops, modeled.bytes,
          /*simd_efficiency=*/1.0, footprint_bytes);
    }
    measured_phase_seconds += p.measured_seconds;
    report.measured_bytes += p.measured_bytes;
    report.modeled_bytes += p.modeled_bytes;
    if (sample.dropped_spans > 0) report.partial = true;
    report.phases.push_back(std::move(p));
  }
  if (measured_phase_seconds > 0.0)
    for (PhaseProfile& p : report.phases)
      p.share = p.measured_seconds / measured_phase_seconds;
  ctx.metrics().counter("perf.profile_reports").increment();
  return report;
}

namespace {

void write_phase_json(const PhaseProfile& p, std::ostream& os) {
  os << "{\"index\":" << p.index << ",\"kind\":\""
     << sv::phase_kind_name(p.kind) << "\",\"gates\":" << p.gates
     << ",\"hops\":" << p.hops << ",\"threads\":" << p.threads
     << ",\"measured_seconds\":" << p.measured_seconds
     << ",\"modeled_seconds\":" << p.modeled_seconds
     << ",\"drift_ratio\":" << p.drift_ratio()
     << ",\"measured_bytes\":" << p.measured_bytes
     << ",\"modeled_bytes\":" << p.modeled_bytes << ",\"flops\":" << p.flops
     << ",\"exchange_bytes\":" << p.exchange_bytes
     << ",\"sim_exchange_seconds\":" << p.sim_exchange_seconds
     << ",\"measured_gbps\":" << p.measured_gbps()
     << ",\"modeled_gbps\":" << p.modeled_gbps()
     << ",\"measured_gflops\":" << p.measured_gflops()
     << ",\"modeled_gflops\":" << p.modeled_gflops()
     << ",\"share\":" << p.share
     << ",\"dropped_spans\":" << p.dropped_spans << ",\"roofline\":{"
     << "\"arithmetic_intensity\":" << p.roofline.point.arithmetic_intensity
     << ",\"attainable_gflops\":" << p.roofline.point.attainable_gflops
     << ",\"compute_roof_gflops\":" << p.roofline.point.compute_roof_gflops
     << ",\"bandwidth_gbps\":" << p.roofline.point.bandwidth_gbps
     << ",\"memory_bound\":" << (p.roofline.point.memory_bound ? "true" : "false")
     << "},\"hw\":{\"valid\":" << (p.hw.valid ? "true" : "false")
     << ",\"cycles\":" << p.hw.cycles
     << ",\"instructions\":" << p.hw.instructions
     << ",\"cache_misses\":" << p.hw.cache_misses << ",\"ipc\":" << p.hw.ipc()
     << "}}";
}

}  // namespace

void write_profile_json(const ProfileReport& report, std::ostream& os) {
  const auto saved_precision = os.precision(15);
  const ProfileEnv& e = report.env;
  os << "{\n\"version\":1,\n\"partial\":"
     << (report.partial ? "true" : "false") << ",\n\"env\":{"
     << "\"machine\":\"" << json_escape(e.machine_name)
     << "\",\"threads\":" << e.threads << ",\"num_qubits\":" << e.num_qubits
     << ",\"node_qubits\":" << e.node_qubits
     << ",\"local_qubits\":" << e.local_qubits
     << ",\"block_qubits\":" << e.block_qubits << ",\"simd_isa\":\""
     << json_escape(e.simd_isa) << "\",\"simd_backend\":\""
     << json_escape(e.simd_backend)
     << "\",\"simd_vector_bits\":" << e.simd_vector_bits
     << ",\"ranks\":" << e.ranks
     << ",\"declared_cache_budget_bytes\":" << e.declared_cache_budget_bytes
     << ",\"probed_cache_budget_bytes\":" << e.probed_cache_budget_bytes
     << ",\"probe_valid\":" << (e.probe_valid ? "true" : "false")
     << ",\"cache_budget_disagreement\":" << e.cache_budget_disagreement
     << ",\"cache_budget_warning\":"
     << (e.cache_budget_warning ? "true" : "false") << "},\n\"totals\":{"
     << "\"measured_seconds\":" << report.measured_seconds
     << ",\"modeled_seconds\":" << report.modeled_seconds
     << ",\"drift_ratio\":" << report.drift_ratio()
     << ",\"measured_bytes\":" << report.measured_bytes
     << ",\"modeled_bytes\":" << report.modeled_bytes
     << ",\"phases\":" << report.phases.size() << "},\n\"phases\":[";
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_phase_json(report.phases[i], os);
  }
  os << "\n],\n\"attribution\":[";
  const auto order = report.by_measured_time();
  double cumulative = 0.0;
  bool first = true;
  for (const PhaseProfile* p : order) {
    cumulative += p->share;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"index\":" << p->index << ",\"kind\":\""
       << sv::phase_kind_name(p->kind)
       << "\",\"measured_seconds\":" << p->measured_seconds
       << ",\"share\":" << p->share << ",\"cumulative_share\":" << cumulative
       << "}";
  }
  os << "\n]\n}\n";
  os.precision(saved_precision);
}

Table profile_env_table(const ProfileReport& report) {
  const ProfileEnv& e = report.env;
  Table t("Profile environment", {"field", "value"});
  t.add_row({std::string("machine"), e.machine_name});
  t.add_row({std::string("threads"), static_cast<std::int64_t>(e.threads)});
  t.add_row({std::string("qubits (total/local/block)"),
             std::to_string(e.num_qubits) + "/" +
                 std::to_string(e.local_qubits) + "/" +
                 std::to_string(e.block_qubits)});
  t.add_row({std::string("simd backend"),
             e.simd_backend + " (isa " + e.simd_isa + ", " +
                 std::to_string(e.simd_vector_bits) + "-bit)"});
  t.add_row({std::string("ranks"), static_cast<std::int64_t>(e.ranks)});
  t.add_row({std::string("cache budget declared (KiB)"),
             static_cast<std::int64_t>(e.declared_cache_budget_bytes >> 10)});
  t.add_row({std::string("cache budget probed (KiB)"),
             e.probe_valid
                 ? std::to_string(e.probed_cache_budget_bytes >> 10)
                 : std::string("probe inconclusive")});
  t.add_row({std::string("cache disagreement"),
             e.cache_budget_disagreement});
  if (e.cache_budget_warning)
    t.add_row({std::string("WARNING"),
               std::string("probed cache budget disagrees >25% with the "
                           "MachineSpec declaration")});
  if (report.partial)
    t.add_row({std::string("PARTIAL"),
               std::string("tracer rings overflowed mid-run; span-derived "
                           "data is incomplete")});
  return t;
}

Table profile_phase_table(const ProfileReport& report, std::size_t max_rows) {
  Table t("Plan phases: measured vs modeled",
          {"#", "phase", "gates", "meas ms", "model ms", "ratio", "meas GB/s",
           "model GB/s", "GF/s", "roof GF/s", "bound"});
  const std::size_t rows = std::min(report.phases.size(), max_rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const PhaseProfile& p = report.phases[i];
    t.add_row({static_cast<std::int64_t>(p.index),
               std::string(sv::phase_kind_name(p.kind)),
               static_cast<std::int64_t>(p.gates),
               p.measured_seconds * 1e3, p.modeled_seconds * 1e3,
               p.drift_ratio(), p.measured_gbps(), p.modeled_gbps(),
               p.measured_gflops(), p.roofline.point.attainable_gflops,
               std::string(p.kind == sv::PhaseKind::Exchange ? "wire"
                           : p.roofline.point.memory_bound ? "mem"
                                                           : "compute")});
  }
  t.add_row({std::int64_t{-1}, std::string("TOTAL"),
             static_cast<std::int64_t>(report.phases.size()),
             report.measured_seconds * 1e3, report.modeled_seconds * 1e3,
             report.drift_ratio(), 0.0, 0.0, 0.0, 0.0, std::string("")});
  return t;
}

Table profile_attribution_table(const ProfileReport& report,
                                std::size_t top_n) {
  Table t("Where did the time go",
          {"#", "phase", "gates", "ms", "share", "cumulative"});
  const auto order = report.by_measured_time();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    cumulative += order[i]->share;
    if (i >= top_n) continue;
    t.add_row({static_cast<std::int64_t>(order[i]->index),
               std::string(sv::phase_kind_name(order[i]->kind)),
               static_cast<std::int64_t>(order[i]->gates),
               order[i]->measured_seconds * 1e3, order[i]->share, cumulative});
  }
  return t;
}

}  // namespace svsim::perf
