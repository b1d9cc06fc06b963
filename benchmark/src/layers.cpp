#include "layers.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "obs/profile.hpp"
#include "sv/plan.hpp"
#include "sv/simd/simd.hpp"

#include "spans.hpp"
#include "triad.hpp"

namespace bench {

using namespace svsim;

namespace {

struct PlanShape {
  double phases = 0, dense = 0, sweeps = 0, traversals = 0, gpt = 0;
};

PlanShape mean_plan_shape(const std::vector<Execution>& executions) {
  PlanShape s;
  if (executions.empty()) return s;
  for (const Execution& e : executions) {
    const sv::ExecutionPlan& plan = *e.cached->plan;
    s.phases += static_cast<double>(plan.phases.size());
    for (const auto& phase : plan.phases) {
      if (phase.kind == sv::PhaseKind::DenseGate) s.dense += 1;
      if (phase.kind == sv::PhaseKind::LocalSweep) s.sweeps += 1;
    }
    s.traversals += static_cast<double>(plan.traversals());
    s.gpt += plan.gates_per_traversal();
  }
  const double n = static_cast<double>(executions.size());
  s.phases /= n;
  s.dense /= n;
  s.sweeps /= n;
  s.traversals /= n;
  s.gpt /= n;
  return s;
}

std::string file_stem(const Options& opt) {
  return opt.workload + "-seed" + std::to_string(opt.seed);
}

}  // namespace

void measure_layers(const Options& opt, const std::vector<JobSpec>& candidates,
                    const svc::ServiceOptions& service_options,
                    unsigned worker_threads, double budget_s,
                    const UntracedFacts& facts, Report& report) {
  // The executing worker's context, laid out as serve_session lays it out.
  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = &ThreadPool::global();
  if (worker_threads != pool->num_threads()) {
    own_pool = std::make_unique<ThreadPool>(worker_threads);
    pool = own_pool.get();
  }
  ExecutionContext ctx;
  ctx.with_pool(*pool);
  if (service_options.workers > 1) {
    ContextConfig config;
    config.element_bytes = service_options.default_precision == "f32" ? 4 : 8;
    config.simd_isa = static_cast<int>(sv::simd::active_backend().isa);
    ctx.with_config(config);
  }

  const TriadResult triad =
      run_triad(std::max(1u, std::thread::hardware_concurrency()));
  report.oracle(triad.valid, "triad arrays hold a wrong result");

  // Pass 1, untraced: fixes how many jobs the replay covers.
  Spans off(false);
  Pipeline untraced(service_options, ctx, off);
  std::size_t jobs = 0;
  const auto u0 = Clock::now();
  while (jobs < candidates.size() &&
         (jobs == 0 || seconds_between(u0, Clock::now()) < budget_s)) {
    untraced.run(candidates[jobs], jobs);
    ++jobs;
  }
  const double untraced_wall = seconds_between(u0, Clock::now());

  // Pass 2, traced: spans around every call plus the phase profiler.
  Spans spans(true);
  obs::ProfileRegistry::global().reset();
  obs::ProfilerOptions popts;
  popts.retain_runs = false;
  obs::Profiler profiler(popts);
  profiler.install();
  Pipeline traced(service_options, ctx, spans);
  std::vector<svc::JobResult> traced_results;
  traced_results.reserve(jobs);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < jobs; ++i)
    traced_results.push_back(traced.run(candidates[i], i));
  const double traced_wall = seconds_between(t0, Clock::now());
  // The batch path records no phases: profile one trajectory per
  // trajectory-mode job instead.
  for (const Execution& e : traced.executions())
    if (!e.cached->sampled_mode) run_single_trajectory(e, ctx);
  profiler.uninstall();

  // Pass 3: the same plans on a one-thread pool.
  ThreadPool one(1);
  ExecutionContext one_ctx = ctx;
  one_ctx.with_pool(one);
  double one_thread_s = 0.0;
  for (const Execution& e : traced.executions())
    one_thread_s += execute_again(e, one_ctx);

  // Pass 4: the program's own Service::run_job must give the same counts.
  svc::Service service(service_options);
  for (std::size_t i = 0; i < jobs; ++i) {
    const JobSpec& spec = candidates[i];
    const svc::JobResult& mine = traced_results[i];
    if (spec.malformed) {
      if (mine.ok || mine.error_code != "bad_request")
        report.fail(spec.id + ": pipeline accepted a malformed line");
      continue;
    }
    const svc::JobResult theirs =
        service.run_job(svc::parse_job_line(spec.line), ctx);
    if (!mine.ok || !theirs.ok || mine.counts != theirs.counts)
      report.fail(spec.id + ": pipeline counts differ from Service::run_job");
  }

  // ---- Metrics ----------------------------------------------------------
  const auto totals = spans.layer_totals();
  auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  auto per_call = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s / static_cast<double>(it->second.count);
  };
  const double executed =
      std::max<double>(1.0, static_cast<double>(traced.executions().size()));
  const double job_total = total("svc.job");

  report.metric("svc.parse_s", total("svc.parse") / static_cast<double>(jobs),
                "s");
  report.metric("qc.build_s", per_call("qc.build"), "s");
  report.metric("svc.fingerprint_s", per_call("svc.fingerprint"), "s");
  report.metric("svc.cache.lookup_s", per_call("svc.cache.lookup"), "s");
  report.metric("svc.cache.hit_ratio", facts.cache_hit_ratio, "ratio");
  report.metric("svc.serialize_s", per_call("svc.serialize"), "s");
  report.metric("svc.queue_wait_share", facts.queue_wait_share, "ratio");
  report.metric("svc.busy_share", facts.busy_share, "ratio");
  report.metric("sv.compile_s", per_call("sv.compile"), "s");
  report.metric("perf.cost_plan_s", per_call("perf.cost_plan"), "s");
  report.metric("sv.compile_share",
                (total("sv.compile") + total("perf.cost_plan")) / job_total,
                "ratio");
  report.metric("sv.state_alloc_s", total("sv.state_alloc") / executed, "s");
  report.metric("sv.execute_s", total("sv.execute") / executed, "s");
  report.metric("sv.execute_share", total("sv.execute") / job_total, "ratio");
  report.metric("sv.sample_s", total("sv.sample") / executed, "s");

  const obs::ProfileRegistry& phases = obs::ProfileRegistry::global();
  double phase_total_s = 0.0;
  for (std::uint8_t k = 0; k < obs::kProfilePhaseKinds; ++k)
    phase_total_s += phases.kind_totals(k).seconds;
  const double profiled_runs =
      std::max<double>(1.0, static_cast<double>(phases.runs()));
  for (std::uint8_t k = 0; k < obs::kProfilePhaseKinds; ++k) {
    const auto kt = phases.kind_totals(k);
    const std::string base = std::string("sv.phase.") +
                             obs::profile_phase_name(k);
    report.metric(base + "_share",
                  phase_total_s > 0 ? kt.seconds / phase_total_s : 0.0,
                  "ratio");
    report.note(base + "_s", kt.seconds / profiled_runs, "s");
    if (k == obs::kProfilePhaseLocalSweep || k == obs::kProfilePhaseDenseGate) {
      const double gbps =
          kt.seconds > 0 ? static_cast<double>(kt.bytes) / kt.seconds * 1e-9
                         : 0.0;
      report.metric(base + "_gbps", gbps, "GB/s");
      report.metric(base + "_bw_fraction", gbps / triad.gbps, "ratio");
    }
  }

  const PlanShape shape = mean_plan_shape(traced.executions());
  report.metric("sv.plan.phases", shape.phases, "count");
  report.metric("sv.plan.dense_phases", shape.dense, "count");
  report.metric("sv.plan.sweep_phases", shape.sweeps, "count");
  report.metric("sv.plan.traversals", shape.traversals, "count");
  report.metric("sv.plan.gates_per_traversal", shape.gpt, "ratio");
  report.metric("sv.batch.s_per_trajectory",
                traced.execute_seconds() /
                    std::max<double>(1.0, static_cast<double>(
                                              traced.trajectories())),
                "s");
  report.metric("common.pool.speedup",
                one_thread_s / untraced.execute_seconds(), "ratio");
  report.metric("machine.triad_gbps", triad.gbps, "GB/s");
  report.metric("trace.overhead", traced_wall / untraced_wall - 1.0, "ratio");

  report.note("trace.replayed_jobs", static_cast<double>(jobs), "count");
  report.note("trace.pool_threads", pool->num_threads(), "count");
  report.note("machine.triad_array_bytes",
              static_cast<double>(triad.array_bytes), "B");
  report.note("machine.llc_bytes", static_cast<double>(triad.llc_bytes), "B");

  // ---- Files: Chrome trace and per-layer summary --------------------------
  if (opt.out_dir.empty()) return;
  std::filesystem::create_directories(opt.out_dir);
  const std::string stem = opt.out_dir + "/" + file_stem(opt);
  {
    std::ofstream chrome(stem + ".trace.json");
    spans.write_chrome_json(chrome);
  }
  std::ofstream summary(stem + ".layers.json");
  summary.precision(12);
  summary << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
          << ",\"env\":\"" << env_stamp() << " triad_gbps=" << triad.gbps
          << " triad_array_bytes=" << triad.array_bytes
          << "\",\"replayed_jobs\":" << jobs << ",\"layers\":{";
  bool first = true;
  for (const auto& [name, t] : totals) {
    summary << (first ? "" : ",") << "\n\"" << name << "\":{\"calls\":"
            << t.count << ",\"total_s\":" << t.total_s
            << ",\"self_s\":" << t.self_s << "}";
    first = false;
  }
  summary << "\n},\"metrics\":{";
  first = true;
  for (const auto* list : {&report.metrics, &report.info}) {
    for (const Metric& m : *list) {
      summary << (first ? "" : ",") << "\n\"" << m.name << "\":{\"value\":"
              << m.value << ",\"unit\":\"" << m.unit << "\"}";
      first = false;
    }
  }
  summary << "\n}}\n";
}

}  // namespace bench
