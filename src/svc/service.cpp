#include "svc/service.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "dist/dist_plan.hpp"
#include "machine/exec_config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/perf_simulator.hpp"
#include "qc/library.hpp"
#include "qc/qasm.hpp"
#include "sv/plan.hpp"
#include "sv/simd/simd.hpp"
#include "sv/simulator.hpp"
#include "svc/job_queue.hpp"
#include "svc/json.hpp"

namespace svsim::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Physical memory of the host in bytes, read once; +inf when unknown (no
/// memory admission then).
double host_memory_bytes() {
  static const double bytes = [] {
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long page_size = sysconf(_SC_PAGE_SIZE);
    return pages > 0 && page_size > 0
               ? static_cast<double>(pages) * static_cast<double>(page_size)
               : std::numeric_limits<double>::infinity();
  }();
  return bytes;
}

/// Peak bytes per shot while a job reads out: the sampler's key, uniform
/// and chunk-order index (StateVector::sample), then the key and its sorted
/// copy (sv::count_keys).
constexpr double kShotBytes = 24.0;

sv::ExecutionPlan compile_for_service(const qc::Circuit& circuit,
                                      const sv::PlanOptions& po,
                                      unsigned ranks,
                                      const std::string& scheduler) {
  sv::ExecutionPlan plan;
  if (ranks <= 1) {
    plan = sv::compile_plan(circuit, po);
  } else {
    dist::DistExecOptions dopts;
    dopts.scheduler = scheduler == "naive" ? dist::CommScheduler::Naive
                                           : dist::CommScheduler::Remap;
    dopts.plan = po;
    plan = dist::compile_distributed(circuit, ilog2(ranks), dopts);
  }
  plan.validate();
  return plan;
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache_bytes) {
  SVSIM_ASSERT(options_.pool != nullptr);
  require(options_.batch_bytes > 0, "Service: batch_bytes must be positive");
}

JobResult Service::run_job(const JobRequest& request) {
  ExecutionContext ctx;
  ctx.with_pool(*options_.pool);
  return run_job(request, ctx);
}

JobResult Service::run_job(const JobRequest& request,
                           const ExecutionContext& ctx) {
  obs::ScopedSpan span("svc.job", obs::SpanCategory::Region, ctx.tracer());
  // Counter handles resolve per job through the context's registry; a
  // function-local static here would pin the first registry forever.
  obs::MetricsRegistry& registry = ctx.metrics();
  registry.counter("svc.jobs").increment();
  jobs_run_.fetch_add(1, std::memory_order_relaxed);
  try {
    JobResult result = execute(request, ctx);
    if (!result.ok && result.error_code == "admission_rejected") {
      registry.counter("svc.jobs_rejected").increment();
      jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
    }
    if (result.ok) {
      registry.counter("svc.shots").add(result.shots);
      shots_executed_.fetch_add(result.shots, std::memory_order_relaxed);
    }
    return result;
  } catch (const std::exception& e) {
    JobResult result;
    result.id = request.id;
    result.ok = false;
    result.error_code = "job_failed";
    result.error_message = e.what();
    return result;
  }
}

JobResult Service::execute(const JobRequest& request,
                           const ExecutionContext& ctx) {
  const auto job_start = Clock::now();
  JobResult result;
  result.id = request.id;
  result.shots = request.shots;
  result.modeled_limit_seconds = options_.max_modeled_seconds;
  require(request.shots > 0, "job: shots must be positive");
  require(request.ranks >= 1 && is_pow2(request.ranks),
          "job: ranks must be a power of two");
  require(request.scheduler == "remap" || request.scheduler == "naive",
          "job: scheduler must be remap or naive");
  const std::string precision = request.precision.empty()
                                    ? options_.default_precision
                                    : request.precision;
  require(precision == "f64" || precision == "f32",
          "job: precision must be f64 or f32");
  const unsigned element_bytes = precision == "f32" ? 4 : 8;
  result.precision = precision;

  // ---- Memory admission (before fingerprint and compile) ----------------
  // Every execution holds all 2^n amplitudes in this process, simulated
  // distributed plans included, and the shots' buffers beside them; a job
  // beyond physical memory would only fail in allocation after its plan
  // was compiled and cached.
  const double state_gib =
      std::ldexp(2.0 * element_bytes,
                 static_cast<int>(request.circuit.num_qubits()) - 30);
  const double shots_gib =
      std::ldexp(static_cast<double>(request.shots) * kShotBytes, -30);
  const double memory_gib = std::ldexp(host_memory_bytes(), -30);
  if (state_gib + shots_gib > memory_gib) {
    result.ok = false;
    result.error_code = "admission_rejected";
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "the %s state and %zu shots need %.3g GiB, above the "
                  "host's %.3g GiB of physical memory",
                  precision.c_str(), request.shots, state_gib + shots_gib,
                  memory_gib);
    result.error_message = buf;
    result.total_seconds = seconds_since(job_start);
    return result;
  }

  sv::PlanOptions po;
  po.fusion = request.fusion;
  po.fusion_width = request.fusion_width;
  po.blocking = request.blocking;
  po.block_qubits = request.block_qubits;
  // f32 amplitudes halve the footprint, so auto-sized blocks go twice as
  // deep; amp_bytes also feeds the plan fingerprint, keeping precisions in
  // separate cache entries.
  po.amp_bytes = 2 * element_bytes;
  po.machine = &options_.machine;
  // Compile-path telemetry (fusion/sweep/plan counters) lands in the
  // context's registry; the pointer is not part of the fingerprint.
  po.metrics = &ctx.metrics();
  const sv::ShotSplit split =
      sv::split_shots(request.circuit, request.noise, po);

  // ---- Cache lookup (compile at most once per key) ----------------------
  PlanKey key;
  key.circuit_fp = fingerprint_shots(split);
  key.machine_fp = fingerprint_machine(&options_.machine);
  key.options_fp = fingerprint_plan_options(
      split.options, request.ranks, request.scheduler, split.options.amp_bytes);
  result.cache_key = key.to_string();

  std::shared_ptr<const CachedPlan> cached = cache_.get(key);
  result.cache_hit = cached != nullptr;
  if (cached == nullptr) {
    const auto compile_start = Clock::now();
    auto entry = std::make_shared<CachedPlan>();
    entry->sampled_mode = split.mode == sv::ShotMode::Sampled;
    entry->measures = split.measures;
    entry->num_clbits = split.label_width;
    entry->plan = std::make_shared<const sv::ExecutionPlan>(compile_for_service(
        split.circuit, split.options, request.ranks, request.scheduler));

    machine::ExecConfig cfg;
    cfg.threads = options_.threads;
    cfg.element_bytes = element_bytes;
    entry->cost = perf::cost_plan(*entry->plan, options_.machine, cfg, ctx);
    entry->footprint_bytes =
        plan_footprint_bytes(*entry->plan) + cache_entry_overhead_bytes(*entry);
    result.compile_seconds = seconds_since(compile_start);
    cache_.put(key, entry);
    cached = std::move(entry);
  }

  result.plan_summary = cached->plan->summary_id();
  result.plan_footprint_bytes = cached->footprint_bytes;
  result.mode = cached->sampled_mode ? "sampled" : "trajectory";
  result.executions = cached->sampled_mode ? 1 : request.shots;

  // ---- Admission --------------------------------------------------------
  result.modeled_seconds =
      cached->cost.compute_seconds * static_cast<double>(result.executions);
  if (options_.max_modeled_seconds > 0.0 &&
      result.modeled_seconds > options_.max_modeled_seconds) {
    result.ok = false;
    result.error_code = "admission_rejected";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "modeled compute %.3gs exceeds the %.3gs admission ceiling",
                  result.modeled_seconds, options_.max_modeled_seconds);
    result.error_message = buf;
    result.total_seconds = seconds_since(job_start);
    return result;  // the plan stays cached for a cheaper resubmission
  }

  // ---- Execute ----------------------------------------------------------
  const auto exec_start = Clock::now();
  sv::SimulatorOptions sim_opts;
  sim_opts.pool = options_.pool;
  sim_opts.context = &ctx;
  sim_opts.seed = request.seed;
  sim_opts.noise = request.noise;
  const auto run_shots = [&](auto sim) {
    const sv::ShotCounts shots = sim.run_shots(
        *cached->plan,
        cached->sampled_mode ? sv::ShotMode::Sampled : sv::ShotMode::Trajectory,
        cached->measures, request.shots, options_.batch_bytes);
    result.counts = label_counts(shots.counts, cached->num_clbits);
    result.batches = shots.batches;
    result.batch_size = shots.batch_size;
  };
  if (element_bytes == 4)
    run_shots(sv::Simulator<float>(sim_opts));
  else
    run_shots(sv::Simulator<double>(sim_opts));

  result.execute_seconds = seconds_since(exec_start);
  result.total_seconds = seconds_since(job_start);
  return result;
}

std::map<std::string, std::size_t> label_counts(const sv::SortedCounts& counts,
                                                unsigned width) {
  std::map<std::string, std::size_t> labels;
  const std::uint64_t in_label = width < 64 ? pow2(width) - 1 : ~0ull;
  for (const auto& [key, count] : counts) {
    std::string label(width, '0');
    for (std::uint64_t k = key & in_label; k != 0; k &= k - 1)
      label[width - 1 - static_cast<unsigned>(__builtin_ctzll(k))] = '1';
    labels.emplace_hint(labels.end(), std::move(label), count);
  }
  return labels;
}

// ---- Serve protocol -----------------------------------------------------

namespace {

sv::NoiseModel parse_noise(const json::Value& v) {
  sv::NoiseModel noise;
  if (const json::Value* p = v.find("depolarizing"))
    noise.add_depolarizing(p->as_number("noise.depolarizing"));
  if (const json::Value* p = v.find("bit_flip"))
    noise.add_bit_flip(p->as_number("noise.bit_flip"));
  if (const json::Value* p = v.find("phase_flip"))
    noise.add_phase_flip(p->as_number("noise.phase_flip"));
  if (const json::Value* p = v.find("amplitude_damping"))
    noise.add_amplitude_damping(p->as_number("noise.amplitude_damping"));
  if (const json::Value* p = v.find("readout")) {
    require(p->is_array() && p->array.size() == 2,
            "noise.readout must be [p0_to_1, p1_to_0]");
    noise.set_readout_error(p->array[0].as_number("noise.readout[0]"),
                            p->array[1].as_number("noise.readout[1]"));
  }
  return noise;
}

/// Widest register a job may name: an amplitude index is a uint64.
constexpr std::uint64_t kMaxJobQubits = 64;
constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
/// Most two-qubit blocks a "qv" job may ask for (floor(qubits / 2) x depth).
/// The circuit is built at parse time, before admission prices it, so the
/// bound is checked first; the benchmark's largest QV job has 96 blocks.
constexpr std::uint64_t kMaxQvBlocks = 65536;
constexpr std::uint64_t kMaxUint64 = std::numeric_limits<std::uint64_t>::max();

qc::Circuit parse_circuit(const json::Value& job) {
  if (const json::Value* q = job.find("qasm"))
    return qc::parse_qasm(q->as_string("qasm"));
  if (const json::Value* q = job.find("qft"))
    return qc::qft(static_cast<unsigned>(q->as_count("qft", kMaxJobQubits)));
  if (const json::Value* q = job.find("qv")) {
    require(q->is_array() && q->array.size() >= 2,
            "qv must be [qubits, depth] or [qubits, depth, seed]");
    const auto nq =
        static_cast<unsigned>(q->array[0].as_count("qv[0]", kMaxJobQubits));
    const auto d = static_cast<unsigned>(q->array[1].as_count(
        "qv[1]", kMaxQvBlocks / std::max<unsigned>(nq / 2, 1)));
    const std::uint64_t seed =
        q->array.size() > 2
            ? q->array[2].as_count("qv[2]", kMaxUint64)
            : 1234;
    return qc::random_quantum_volume(nq, d, seed);
  }
  throw Error("job needs a circuit: one of \"qasm\", \"qft\", \"qv\"");
}

/// Appends `v` as printf's %.9g writes it.
void append_double(std::string& out, double v) {
  char buf[40];
  const int len = std::snprintf(buf, sizeof(buf), "%.9g", v);
  out.append(buf, static_cast<std::size_t>(len));
}

void append_count(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

JobRequest parse_job_line(const std::string& line) {
  const json::Value job = json::parse(line);
  require(job.is_object(), "job line must be a JSON object");
  JobRequest req;
  req.id = job.get_string("id", "");
  req.circuit = parse_circuit(job);
  req.shots = static_cast<std::size_t>(job.get_count(
      "shots", 1024, std::numeric_limits<std::size_t>::max()));
  require(req.shots >= 1, "shots must be >= 1");
  if (const json::Value* o = job.find("options")) {
    require(o->is_object(), "\"options\" must be an object");
    req.fusion = o->get_bool("fusion", false);
    req.fusion_width =
        static_cast<unsigned>(o->get_count("fusion_width", 3, kMaxUnsigned));
    req.blocking = o->get_bool("blocked", false);
    req.block_qubits =
        static_cast<unsigned>(o->get_count("block_qubits", 0, kMaxUnsigned));
    req.ranks = static_cast<unsigned>(o->get_count("ranks", 1, kMaxUnsigned));
    req.scheduler = o->get_string("sched", "remap");
    req.seed = o->get_count("seed", 1, kMaxUint64);
    req.precision = o->get_string("precision", "");
  }
  if (const json::Value* noise = job.find("noise")) {
    require(noise->is_object(), "\"noise\" must be an object");
    req.noise = parse_noise(*noise);
  }
  return req;
}

std::string result_to_json(const JobResult& r) {
  std::string out;
  out.reserve(512 + r.id.size() + r.error_message.size() +
              r.plan_summary.size());
  out += "{\"type\":\"result\",\"id\":\"";
  json::append_escaped(out, r.id);
  out += r.ok ? "\",\"ok\":true" : "\",\"ok\":false";
  if (!r.ok) {
    out += ",\"error\":{\"code\":\"";
    json::append_escaped(out, r.error_code);
    out += "\",\"message\":\"";
    json::append_escaped(out, r.error_message);
    out += "\"}";
  }
  out += ",\"shots\":";
  append_count(out, r.shots);
  if (r.ok) {
    out += ",\"counts\":{";
    // "label":count, entries written straight into room sized for them.
    std::size_t room = 0;
    for (const auto& entry : r.counts) room += entry.first.size() + 24;
    std::size_t at = out.size();
    out.resize(at + room);
    for (const auto& [bits, count] : r.counts) {
      char* p = out.data() + at;
      *p++ = '"';
      p = std::copy(bits.begin(), bits.end(), p);
      *p++ = '"';
      *p++ = ':';
      p = std::to_chars(p, p + 20, count).ptr;
      *p++ = ',';
      at = static_cast<std::size_t>(p - out.data());
    }
    out.resize(r.counts.empty() ? at : at - 1);  // the last entry's comma
    out += "},\"mode\":\"";
    out += r.mode;
    out += "\",\"precision\":\"";
    json::append_escaped(out, r.precision);
    out += "\",\"executions\":";
    append_count(out, r.executions);
    out += ",\"batches\":";
    append_count(out, r.batches);
    out += ",\"batch_size\":";
    append_count(out, r.batch_size);
  }
  if (!r.cache_key.empty()) {
    out += ",\"cache\":{\"hit\":";
    out += r.cache_hit ? "true" : "false";
    out += ",\"key\":\"";
    out += r.cache_key;
    out += "\",\"plan\":\"";
    json::append_escaped(out, r.plan_summary);
    out += "\",\"footprint_bytes\":";
    append_count(out, r.plan_footprint_bytes);
    out += '}';
  }
  out += ",\"admission\":{\"modeled_seconds\":";
  append_double(out, r.modeled_seconds);
  out += ",\"limit_seconds\":";
  append_double(out, r.modeled_limit_seconds);
  out += "},\"timing\":{\"compile_seconds\":";
  append_double(out, r.compile_seconds);
  out += ",\"execute_seconds\":";
  append_double(out, r.execute_seconds);
  out += ",\"total_seconds\":";
  append_double(out, r.total_seconds);
  out += "}}";
  return out;
}

namespace {

/// One parsed (or failed-to-parse) job line in flight between the reader
/// thread and the executing thread.
struct QueueItem {
  std::uint64_t seq = 0;
  JobRequest request;
  bool parsed = false;
  std::string parse_error;
};

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

ServeStats serve_session(std::istream& in, std::ostream& out,
                         Service& service) {
  const unsigned workers = std::max(1u, service.options().workers);

  const std::size_t queue_depth = kServeQueueDepthPerWorker * workers;
  JobQueue<QueueItem> queue(queue_depth);
  std::thread reader([&in, &queue] {
    std::string line;
    std::uint64_t seq = 0;
    while (std::getline(in, line)) {
      if (blank(line)) continue;
      QueueItem item;
      item.seq = ++seq;
      try {
        item.request = parse_job_line(line);
        item.parsed = true;
      } catch (const std::exception& e) {
        item.parse_error = e.what();
        // Salvage the submitted id when the line was at least valid JSON,
        // so the client can correlate the bad_request result.
        try {
          const json::Value job = json::parse(line);
          if (job.is_object()) item.request.id = job.get_string("id", "");
        } catch (const std::exception&) {
        }
      }
      queue.push(std::move(item));
    }
    queue.close();
  });

  // Per-worker execution contexts. Each worker owns a private ThreadPool
  // slice — ThreadPool is not safe for concurrent external submitters, so
  // workers never share one. All contexts resolve to the process metrics
  // registry, so session metrics merge by construction (counters are
  // atomic). A single worker reuses the service's configured pool and pops
  // in submission order, preserving the classic serve behavior exactly.
  // Each worker also lends its sampled-mode state from one buffer of its
  // own, so a job reuses the last job's pages instead of faulting in new
  // ones (Simulator::run_shots).
  std::vector<std::unique_ptr<ThreadPool>> slices;
  std::vector<LentBuffer> state_buffers(workers);
  std::vector<ExecutionContext> contexts;
  contexts.reserve(workers);
  if (workers == 1) {
    contexts.emplace_back();
    contexts.back().with_pool(*service.options().pool).with_state_buffer(
        state_buffers.front());
  } else {
    ContextConfig config;
    config.element_bytes =
        service.options().default_precision == "f32" ? 4u : 8u;
    config.simd_isa = static_cast<int>(sv::simd::active_backend().isa);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned per_worker = std::max(1u, hw / workers);
    for (unsigned w = 0; w < workers; ++w) {
      slices.push_back(std::make_unique<ThreadPool>(per_worker));
      contexts.emplace_back();
      contexts.back()
          .with_pool(*slices.back())
          .with_config(config)
          .with_state_buffer(state_buffers[w]);
    }
  }

  ServeStats stats;
  stats.workers = workers;
  stats.worker_jobs.assign(workers, 0);
  contexts.front().metrics().gauge("svc.workers").set(workers);

  // Result lines flow through an output queue drained by one writer thread,
  // so concurrent workers never interleave bytes on `out`. Lines appear in
  // completion order; clients correlate by "id".
  JobQueue<std::string> output(queue_depth);
  std::thread writer([&out, &output] {
    std::string line;
    while (output.pop(line)) out << line << "\n" << std::flush;
  });

  std::mutex stats_mutex;
  auto run_worker = [&](unsigned w) {
    const ExecutionContext& ctx = contexts[w];
    const std::string jobs_counter =
        "svc.worker." + std::to_string(w) + ".jobs";
    QueueItem item;
    while (queue.pop(item)) {
      JobResult result;
      if (!item.parsed) {
        result.ok = false;
        result.error_code = "bad_request";
        result.error_message = item.parse_error;
        result.id = item.request.id;
      } else {
        if (item.request.id.empty())
          item.request.id = "job-" + std::to_string(item.seq);
        result = service.run_job(item.request, ctx);
      }
      if (result.id.empty()) result.id = "job-" + std::to_string(item.seq);
      ctx.metrics().counter(jobs_counter).increment();
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        ++stats.jobs;
        ++stats.worker_jobs[w];
        if (result.ok) {
          ++stats.ok;
          stats.shots += result.shots;
        } else {
          ++stats.errors;
        }
      }
      output.push(result_to_json(result));
    }
  };
  std::vector<std::thread> executors;
  executors.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) executors.emplace_back(run_worker, w);
  for (auto& t : executors) t.join();
  reader.join();
  output.close();
  writer.join();

  PlanCache& cache = service.cache();
  out << "{\"type\":\"summary\",\"jobs\":" << stats.jobs
      << ",\"ok\":" << stats.ok << ",\"errors\":" << stats.errors
      << ",\"shots\":" << stats.shots << ",\"svc\":{\"workers\":"
      << stats.workers << ",\"worker_jobs\":[";
  for (unsigned w = 0; w < workers; ++w) {
    if (w != 0) out << ",";
    out << stats.worker_jobs[w];
  }
  out << "]},\"plan_cache\":{\"hits\":"
      << cache.hits() << ",\"misses\":" << cache.misses()
      << ",\"evictions\":" << cache.evictions() << ",\"entries\":"
      << cache.size() << ",\"bytes\":" << cache.bytes()
      << ",\"budget_bytes\":" << cache.budget_bytes() << "}}\n"
      << std::flush;
  return stats;
}

}  // namespace svsim::svc
