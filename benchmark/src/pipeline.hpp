// Job specs and the traced replay pipeline.
//
// A JobSpec is one generated job: the serve line the program receives plus
// the generator parameters the benchmark keeps for its own checks. The
// Pipeline replays a job through the program's public functions in the
// order Service::execute calls them —
//
//   svc::parse_job_line -> svc::fingerprint_* -> PlanCache::get
//   -> sv::compile_plan | dist::compile_distributed -> perf::cost_plan
//   -> StateVector ctor -> Simulator::run_plan | run_plan_batch
//   -> StateVector::sample -> svc::result_to_json
//
// doing no work of its own beyond the glue between those calls, with one
// span per call. The qc circuit constructor (span qc.build) is called once
// more beside parse so that parse self time is parse minus build. The
// counts it produces are checked against Service::run_job by the caller.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "qc/circuit.hpp"
#include "sv/noise.hpp"
#include "svc/plan_cache.hpp"
#include "svc/service.hpp"

#include "spans.hpp"

namespace bench {

struct JobSpec {
  enum class Source { Qv, Qft, Qasm };

  std::string id;
  std::string line;  ///< the job line as submitted
  Source source = Source::Qv;
  unsigned qubits = 0;
  unsigned depth = 0;
  std::uint64_t circuit_seed = 0;
  std::string qasm;
  std::size_t shots = 0;
  bool fusion = false;
  bool blocked = false;
  bool f32 = false;
  unsigned ranks = 1;
  std::string noise;  ///< "" | "depolarizing" | "damping" | "flips"
  std::uint64_t job_seed = 1;
  /// A deliberately malformed line; the expected outcome is bad_request.
  bool malformed = false;
  /// The job's plan key was already submitted earlier in the stream.
  bool repeat = false;
};

/// Fills spec.line from the other fields (a well-formed job line).
void render_line(JobSpec& spec);

/// MSB-first label of a classical register value, as the service renders
/// counts keys.
std::string bit_label(std::uint64_t key, unsigned width);

/// The circuit a well-formed spec describes (the qc.build step).
svsim::qc::Circuit build_circuit(const JobSpec& spec);

/// One executed plan, kept so later passes can run the same plans again.
struct Execution {
  std::shared_ptr<const svsim::svc::CachedPlan> cached;
  bool f32 = false;
  std::uint64_t seed = 1;
  std::size_t shots = 0;
  svsim::sv::NoiseModel noise;
  std::size_t batch_size = 1;
};

class Pipeline {
 public:
  /// `options` are the Service's; `ctx` is the executing worker's context.
  /// Both are borrowed and must outlive the pipeline.
  Pipeline(const svsim::svc::ServiceOptions& options,
           const svsim::ExecutionContext& ctx, Spans& spans);

  /// Runs one job, serialized result line included.
  svsim::svc::JobResult run(const JobSpec& spec, std::uint64_t job);

  /// Sum of sv.execute time over all jobs run (measured with or without
  /// spans).
  double execute_seconds() const noexcept { return execute_seconds_; }
  std::uint64_t trajectories() const noexcept { return trajectories_; }
  const std::vector<Execution>& executions() const noexcept {
    return executions_;
  }

 private:
  const svsim::svc::ServiceOptions& options_;
  const svsim::ExecutionContext& ctx_;
  Spans& spans_;
  svsim::svc::PlanCache cache_;
  double execute_seconds_ = 0.0;
  std::uint64_t trajectories_ = 0;
  std::vector<Execution> executions_;
};

/// Executes a recorded plan again under `ctx` exactly as the pipeline did
/// (same batches); returns the execute seconds.
double execute_again(const Execution& execution,
                     const svsim::ExecutionContext& ctx);

/// Runs one trajectory of a recorded plan through Simulator::run_plan, so
/// an installed obs::Profiler records its phases (the batch path records
/// none).
void run_single_trajectory(const Execution& execution,
                           const svsim::ExecutionContext& ctx);

}  // namespace bench
