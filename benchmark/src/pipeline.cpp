#include "pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/bits.hpp"
#include "dist/dist_plan.hpp"
#include "machine/exec_config.hpp"
#include "perf/perf_simulator.hpp"
#include "qc/library.hpp"
#include "qc/qasm.hpp"
#include "sv/plan.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"
#include "svc/json.hpp"

namespace bench {

using namespace svsim;

namespace {

std::string noise_json(const std::string& noise) {
  if (noise == "depolarizing") return "{\"depolarizing\":0.01}";
  if (noise == "damping")
    return "{\"amplitude_damping\":0.02,\"readout\":[0.01,0.02]}";
  if (noise == "flips") return "{\"bit_flip\":0.01,\"phase_flip\":0.01}";
  throw std::logic_error("unknown noise kind " + noise);
}

bool measurements_trailing(const qc::Circuit& circuit) {
  bool seen_measure = false;
  for (const auto& g : circuit.gates()) {
    if (g.kind == qc::GateKind::MEASURE)
      seen_measure = true;
    else if (seen_measure && g.kind != qc::GateKind::BARRIER)
      return false;
  }
  return true;
}

sv::SimulatorOptions simulator_options(const Execution& e,
                                       const ExecutionContext& ctx) {
  sv::SimulatorOptions sim;
  sim.pool = &ctx.pool();
  sim.context = &ctx;
  sim.seed = e.seed;
  sim.noise = e.noise;
  return sim;
}

/// The service's execute step for one cached plan at precision T: state
/// allocation, plan execution and sampling, each in its own span.
template <typename T>
double execute_counts(const Execution& e, const ExecutionContext& ctx,
                      Spans& spans, std::uint64_t job, unsigned label_width,
                      svc::JobResult* result) {
  const svc::CachedPlan& cached = *e.cached;
  const unsigned n = cached.plan->num_qubits;
  ThreadPool* const pool = &ctx.pool();
  sv::Simulator<T> sim(simulator_options(e, ctx));
  double execute_s = 0.0;
  if (cached.sampled_mode) {
    std::unique_ptr<sv::StateVector<T>> state;
    {
      Spans::Scope s(spans, "sv.state_alloc", job);
      state = std::make_unique<sv::StateVector<T>>(n, pool);
    }
    {
      Spans::Scope s(spans, "sv.execute", job);
      const auto t0 = Clock::now();
      sim.run_plan(*state, *cached.plan);
      execute_s += seconds_between(t0, Clock::now());
    }
    Spans::Scope s(spans, "sv.sample", job);
    const auto samples = state->sample(e.shots, sim.rng());
    if (result == nullptr) return execute_s;
    const bool readout = e.noise.has_readout_error();
    for (std::uint64_t basis : samples) {
      std::uint64_t key_bits = 0;
      if (!cached.measures.empty()) {
        for (const auto& [q, c] : cached.measures) {
          bool bit = test_bit(basis, q);
          if (readout) bit = e.noise.flip_readout(bit, sim.rng());
          if (bit) key_bits = set_bit(key_bits, c);
        }
      } else {
        key_bits = basis;
      }
      ++result->counts[bit_label(key_bits, label_width)];
    }
    result->batches = 1;
    result->batch_size = 1;
    return execute_s;
  }

  std::size_t done = 0;
  while (done < e.shots) {
    const std::size_t this_batch = std::min(e.batch_size, e.shots - done);
    std::vector<sv::StateVector<T>> states;
    std::vector<sv::StateVector<T>*> ptrs;
    {
      Spans::Scope s(spans, "sv.state_alloc", job);
      states.reserve(this_batch);
      ptrs.reserve(this_batch);
      for (std::size_t i = 0; i < this_batch; ++i) {
        states.emplace_back(n, pool);
        ptrs.push_back(&states.back());
      }
    }
    std::vector<std::vector<bool>> bits;
    {
      Spans::Scope s(spans, "sv.execute", job);
      const auto t0 = Clock::now();
      bits = sim.run_plan_batch(ptrs, *cached.plan, done);
      execute_s += seconds_between(t0, Clock::now());
    }
    if (result != nullptr) {
      Spans::Scope s(spans, "sv.sample", job);
      for (const auto& traj_bits : bits) {
        std::uint64_t key_bits = 0;
        for (std::size_t b = 0; b < traj_bits.size(); ++b)
          if (traj_bits[b]) key_bits = set_bit(key_bits, unsigned(b));
        ++result->counts[bit_label(key_bits, label_width)];
      }
      ++result->batches;
    }
    done += this_batch;
  }
  if (result != nullptr) result->batch_size = e.batch_size;
  return execute_s;
}

}  // namespace

std::string bit_label(std::uint64_t key, unsigned width) {
  std::string label(width, '0');
  for (unsigned b = 0; b < width; ++b)
    if ((key >> b) & 1) label[width - 1 - b] = '1';
  return label;
}

void render_line(JobSpec& spec) {
  char head[160];
  std::string circuit;
  switch (spec.source) {
    case JobSpec::Source::Qv:
      std::snprintf(head, sizeof head, "\"qv\":[%u,%u,%llu]", spec.qubits,
                    spec.depth,
                    static_cast<unsigned long long>(spec.circuit_seed));
      circuit = head;
      break;
    case JobSpec::Source::Qft:
      circuit = "\"qft\":" + std::to_string(spec.qubits);
      break;
    case JobSpec::Source::Qasm:
      circuit = "\"qasm\":\"" + svc::json::escape(spec.qasm) + "\"";
      break;
  }
  std::string line = "{\"id\":\"" + spec.id + "\"," + circuit +
                     ",\"shots\":" + std::to_string(spec.shots) +
                     ",\"options\":{\"fusion\":" +
                     (spec.fusion ? "true" : "false") +
                     ",\"fusion_width\":3,\"blocked\":" +
                     (spec.blocked ? "true" : "false");
  if (spec.ranks > 1) line += ",\"ranks\":" + std::to_string(spec.ranks);
  if (spec.f32) line += ",\"precision\":\"f32\"";
  line += ",\"seed\":" + std::to_string(spec.job_seed) + "}";
  if (!spec.noise.empty()) line += ",\"noise\":" + noise_json(spec.noise);
  spec.line = line + "}";
}

qc::Circuit build_circuit(const JobSpec& spec) {
  switch (spec.source) {
    case JobSpec::Source::Qv:
      return qc::random_quantum_volume(spec.qubits, spec.depth,
                                       spec.circuit_seed);
    case JobSpec::Source::Qft:
      return qc::qft(spec.qubits);
    case JobSpec::Source::Qasm:
      return qc::parse_qasm(spec.qasm);
  }
  throw std::logic_error("unknown job source");
}

Pipeline::Pipeline(const svc::ServiceOptions& options,
                   const ExecutionContext& ctx, Spans& spans)
    : options_(options), ctx_(ctx), spans_(spans), cache_(options.cache_bytes) {}

svc::JobResult Pipeline::run(const JobSpec& spec, std::uint64_t job) {
  const auto job_start = Clock::now();
  Spans::Scope job_span(spans_, "svc.job", job);
  svc::JobResult result;
  svc::JobRequest request;
  {
    Spans::Scope s(spans_, "svc.parse", job);
    try {
      request = svc::parse_job_line(spec.line);
    } catch (const std::exception& e) {
      result.ok = false;
      result.error_code = "bad_request";
      result.error_message = e.what();
    }
  }
  if (!result.ok) {
    result.id = spec.id;
    Spans::Scope s(spans_, "svc.serialize", job);
    svc::result_to_json(result);
    return result;
  }
  {
    Spans::Scope s(spans_, "qc.build", job);
    build_circuit(spec);
  }
  result.id = request.id;
  result.shots = request.shots;
  const std::string precision = request.precision.empty()
                                    ? options_.default_precision
                                    : request.precision;
  const bool f32 = precision == "f32";
  const unsigned element_bytes = f32 ? 4 : 8;
  result.precision = precision;

  qc::Circuit circuit;
  sv::PlanOptions po;
  svc::PlanKey key;
  {
    Spans::Scope s(spans_, "svc.fingerprint", job);
    circuit = request.circuit;
    if (circuit.is_unitary()) circuit.measure_all();
    po.fusion = request.fusion;
    po.fusion_width = request.fusion_width;
    po.blocking = request.blocking && request.noise.channels().empty();
    po.block_qubits = request.block_qubits;
    po.amp_bytes = 2 * element_bytes;
    po.machine = &options_.machine;
    po.metrics = &ctx_.metrics();
    key.circuit_fp = svc::fingerprint_circuit(circuit);
    key.machine_fp = svc::fingerprint_machine(&options_.machine);
    key.options_fp = svc::fingerprint_plan_options(
        po, request.ranks, request.scheduler, po.amp_bytes);
  }
  result.cache_key = key.to_string();

  std::shared_ptr<const svc::CachedPlan> cached;
  {
    Spans::Scope s(spans_, "svc.cache.lookup", job);
    cached = cache_.get(key);
  }
  result.cache_hit = cached != nullptr;
  if (cached == nullptr) {
    const auto compile_start = Clock::now();
    auto entry = std::make_shared<svc::CachedPlan>();
    {
      Spans::Scope s(spans_, "sv.compile", job);
      entry->num_clbits = circuit.num_clbits();
      const auto& gates = circuit.gates();
      const bool has_measure =
          std::any_of(gates.begin(), gates.end(), [](const qc::Gate& g) {
            return g.kind == qc::GateKind::MEASURE;
          });
      const bool has_reset =
          std::any_of(gates.begin(), gates.end(), [](const qc::Gate& g) {
            return g.kind == qc::GateKind::RESET;
          });
      entry->sampled_mode = request.noise.channels().empty() && !has_reset &&
                            (!has_measure || measurements_trailing(circuit));
      qc::Circuit to_compile =
          entry->sampled_mode
              ? qc::Circuit(circuit.num_qubits(), circuit.num_clbits())
              : circuit;
      if (entry->sampled_mode) {
        for (const auto& g : gates) {
          if (g.kind == qc::GateKind::MEASURE)
            entry->measures.emplace_back(g.qubits[0], g.cbit);
          else if (g.kind != qc::GateKind::BARRIER)
            to_compile.append(g);
        }
      }
      sv::ExecutionPlan plan;
      if (request.ranks <= 1) {
        plan = sv::compile_plan(to_compile, po);
      } else {
        dist::DistExecOptions dopts;
        dopts.scheduler = request.scheduler == "naive"
                              ? dist::CommScheduler::Naive
                              : dist::CommScheduler::Remap;
        dopts.plan = po;
        plan = dist::compile_distributed(to_compile, ilog2(request.ranks),
                                         dopts);
      }
      plan.validate();
      entry->plan = std::make_shared<const sv::ExecutionPlan>(std::move(plan));
    }
    {
      Spans::Scope s(spans_, "perf.cost_plan", job);
      machine::ExecConfig cfg;
      cfg.threads = options_.threads;
      cfg.element_bytes = element_bytes;
      entry->cost = perf::cost_plan(*entry->plan, options_.machine, cfg, ctx_);
    }
    {
      Spans::Scope s(spans_, "svc.cache.insert", job);
      entry->footprint_bytes = svc::plan_footprint_bytes(*entry->plan);
      cache_.put(key, entry);
    }
    result.compile_seconds = seconds_between(compile_start, Clock::now());
    cached = std::move(entry);
  }

  result.plan_summary = cached->plan->summary_id();
  result.plan_footprint_bytes = cached->footprint_bytes;
  result.mode = cached->sampled_mode ? "sampled" : "trajectory";
  result.executions = cached->sampled_mode ? 1 : request.shots;
  result.modeled_seconds =
      cached->cost.compute_seconds * static_cast<double>(result.executions);

  const unsigned n = cached->plan->num_qubits;
  const bool has_measure = !cached->measures.empty() ||
                           (!cached->sampled_mode && cached->num_clbits > 0);
  const unsigned label_width =
      has_measure ? std::max(cached->num_clbits, 1u) : n;

  Execution e;
  e.cached = cached;
  e.f32 = f32;
  e.seed = request.seed;
  e.shots = request.shots;
  e.noise = request.noise;
  const std::uint64_t state_bytes = pow2(n) * std::uint64_t{2 * element_bytes};
  e.batch_size = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      options_.batch_bytes / std::max<std::uint64_t>(state_bytes, 1), 1,
      request.shots));

  const auto exec_start = Clock::now();
  execute_seconds_ +=
      f32 ? execute_counts<float>(e, ctx_, spans_, job, label_width, &result)
          : execute_counts<double>(e, ctx_, spans_, job, label_width,
                                   &result);
  result.execute_seconds = seconds_between(exec_start, Clock::now());
  trajectories_ += result.executions;
  result.total_seconds = seconds_between(job_start, Clock::now());
  executions_.push_back(std::move(e));

  Spans::Scope s(spans_, "svc.serialize", job);
  svc::result_to_json(result);
  return result;
}

double execute_again(const Execution& execution, const ExecutionContext& ctx) {
  Spans off(false);
  return execution.f32
             ? execute_counts<float>(execution, ctx, off, 0, 0, nullptr)
             : execute_counts<double>(execution, ctx, off, 0, 0, nullptr);
}

namespace {

template <typename T>
void single_trajectory(const Execution& e, const ExecutionContext& ctx) {
  sv::Simulator<T> sim(simulator_options(e, ctx));
  sv::StateVector<T> state(e.cached->plan->num_qubits, &ctx.pool());
  sim.run_plan(state, *e.cached->plan);
}

}  // namespace

void run_single_trajectory(const Execution& execution,
                           const ExecutionContext& ctx) {
  if (execution.f32)
    single_trajectory<float>(execution, ctx);
  else
    single_trajectory<double>(execution, ctx);
}

}  // namespace bench
