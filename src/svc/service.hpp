// svc::Service: the compile-once serve-many simulation service.
//
// A Service owns a PlanCache and executes JobRequests against it:
//
//   split -> fingerprint -> cache get-or-compile -> admission -> execute
//
// The split (sv::split_shots) and the execution (sv::Simulator::run_shots)
// are the ones Simulator::sample_counts uses, so a job's counts equal
// sample_counts' at the same seed; the service adds the cache, admission
// and label rendering. Compilation (fusion, sweep grouping, distributed
// exchange placement, and the perf::cost_plan admission price) happens at
// most once per distinct (shot split, machine, options) key; every later
// submission of the same job reuses the cached plan and pays execution
// only.
//
// The line-delimited serve loop (`svsim serve`, serve_session below) is a
// thin transport over run_job: one JSON job per input line, one JSON result
// per output line, one summary line at EOF. With workers > 1 the loop runs
// N executor threads against the shared PlanCache, each under its own
// ExecutionContext (private ThreadPool slice, shared metrics registry); a
// writer thread serializes result lines. docs/SERVICE.md specifies the
// schema; `scripts/check_schema.py service` validates a captured session.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/threading.hpp"
#include "machine/machine_spec.hpp"
#include "obs/context.hpp"
#include "qc/circuit.hpp"
#include "sv/noise.hpp"
#include "sv/simulator.hpp"
#include "svc/plan_cache.hpp"

namespace svsim::svc {

struct ServiceOptions {
  /// Machine whose cache topology sizes blocks and whose roofline prices
  /// admission. Owned by value: jobs may outlive any caller-held spec.
  machine::MachineSpec machine = machine::MachineSpec::a64fx();
  /// Plan-cache byte budget (LRU evicts beyond it).
  std::uint64_t cache_bytes = 8ull << 20;
  /// Admission ceiling on the modeled compute time of one job
  /// (cost.compute_seconds x trajectory executions); 0 = admit everything.
  double max_modeled_seconds = 0.0;
  /// Target resident bytes of one trajectory batch's state vectors; the
  /// batch size is max(1, batch_bytes / state_bytes), capped by the shot
  /// count. A job allocates one batch and reuses it for every batch.
  /// Results are invariant to the split (global trajectory seeding).
  std::uint64_t batch_bytes = sv::kTrajectoryBatchBytes;
  /// Threads assumed by the admission price model (0 = all cores).
  unsigned threads = 0;
  /// Amplitude precision for jobs that do not request one ("f64" | "f32").
  /// Precision is part of the plan fingerprint (via amp_bytes), so f32 and
  /// f64 plans never share a cache entry.
  std::string default_precision = "f64";
  /// Worker pool for kernels (borrowed). A context passed to run_job takes
  /// precedence; this is the fallback for the context-free overload.
  ThreadPool* pool = &ThreadPool::global();
  /// Serve-loop executor threads. 1 keeps the classic single-consumer loop;
  /// N > 1 runs N workers against the shared PlanCache, each with a private
  /// ThreadPool slice of roughly hardware_concurrency()/N threads. The
  /// per-job result payload is identical either way (plans and trajectory
  /// seeding are order- and pool-size-independent); only line order and
  /// timing/cache-hit attribution may differ.
  unsigned workers = 1;
};

/// One job: a circuit plus execution options. Field-for-field what a serve
/// job line carries (parse_job_line); library users fill it directly.
struct JobRequest {
  std::string id;
  qc::Circuit circuit{1};
  std::size_t shots = 1024;
  bool fusion = false;
  unsigned fusion_width = 3;
  bool blocking = false;
  unsigned block_qubits = 0;
  unsigned ranks = 1;                ///< power of two; >1 = distributed plan
  std::string scheduler = "remap";   ///< "remap" | "naive"
  std::uint64_t seed = 1;
  std::string precision;             ///< "f64" | "f32"; empty = service default
  sv::NoiseModel noise;
};

/// One job's outcome, including the cache/admission attribution the serve
/// protocol reports.
struct JobResult {
  std::string id;
  bool ok = true;
  std::string error_code;     ///< "bad_request" | "admission_rejected" |
                              ///< "job_failed"; empty when ok
  std::string error_message;

  std::size_t shots = 0;
  /// MSB-first classical-register bitstrings -> occurrences.
  std::map<std::string, std::size_t> counts;

  bool cache_hit = false;
  std::string cache_key;      ///< PlanKey::to_string()
  std::string plan_summary;   ///< ExecutionPlan::summary_id()
  std::uint64_t plan_footprint_bytes = 0;

  double modeled_seconds = 0.0;        ///< admission price of this job
  double modeled_limit_seconds = 0.0;  ///< ceiling in force (0 = none)

  std::string mode;           ///< "sampled" | "trajectory"
  std::string precision;      ///< resolved amplitude precision ("f64"|"f32")
  std::size_t executions = 0; ///< plan executions (1 sampled, shots noisy)
  std::size_t batches = 0;
  std::size_t batch_size = 0; ///< states per full batch

  double compile_seconds = 0.0;  ///< 0 on a cache hit
  double execute_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Thread-safe service instance: run_job may be called concurrently from
/// any number of threads (the PlanCache is internally locked and the job
/// counters are atomic). Callers that execute in parallel should hand each
/// thread its own ExecutionContext with a private ThreadPool, as the serve
/// loop does — ThreadPool itself is not safe for concurrent external
/// submitters.
class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Executes one job end to end. Never throws: failures come back as a
  /// JobResult with ok=false and a structured error code. This overload
  /// runs under a context built from the service options (options.pool).
  JobResult run_job(const JobRequest& request);

  /// Same, but every observable side effect — kernel pool, metrics
  /// registry, tracer spans, profiler samples — resolves through `ctx`.
  JobResult run_job(const JobRequest& request, const ExecutionContext& ctx);

  const ServiceOptions& options() const noexcept { return options_; }
  PlanCache& cache() noexcept { return cache_; }

  std::uint64_t jobs_run() const noexcept { return jobs_run_.load(); }
  std::uint64_t jobs_rejected() const noexcept {
    return jobs_rejected_.load();
  }
  std::uint64_t shots_executed() const noexcept {
    return shots_executed_.load();
  }

 private:
  JobResult execute(const JobRequest& request, const ExecutionContext& ctx);

  ServiceOptions options_;
  PlanCache cache_;
  std::atomic<std::uint64_t> jobs_run_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> shots_executed_{0};
};

/// Parses one serve job line (see docs/SERVICE.md#job-schema). Throws
/// svsim::Error on malformed input; the serve loop converts that into an
/// ok=false result with code "bad_request".
JobRequest parse_job_line(const std::string& line);

/// MSB-first `width`-bit labels of key-sorted counts (the `svsim run`
/// labels). Fixed-width labels sort like their keys, so each one is
/// inserted at the map's end.
std::map<std::string, std::size_t> label_counts(const sv::SortedCounts& counts,
                                                unsigned width);

/// Renders a JobResult as one line of JSON (no trailing newline).
std::string result_to_json(const JobResult& result);

/// What one serve session processed (mirrors the emitted summary line).
struct ServeStats {
  std::uint64_t jobs = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t shots = 0;
  unsigned workers = 1;
  std::vector<std::uint64_t> worker_jobs;  ///< jobs executed per worker
};

/// Items each serve-session queue (parsed jobs in, result lines out) holds
/// per executor thread before its producer blocks: twice the two lines per
/// worker a closed-loop client keeps outstanding.
inline constexpr std::size_t kServeQueueDepthPerWorker = 4;

/// Line-delimited serve loop: one JSON job per line on `in`, one JSON
/// result line per job on `out`, then one summary line. Blank lines are
/// skipped; jobs without an "id" get "job-<seq>". A reader thread parses
/// ahead through a JobQueue while executor threads run jobs, so parsing
/// overlaps simulation; a socket transport would bind here without touching
/// Service. Both the job queue and the result queue hold at most
/// kServeQueueDepthPerWorker x workers items: the reader stops reading
/// while the workers are that far behind, and the workers stop while the
/// client is not reading results.
///
/// With options().workers == 1 result lines come out in submission order.
/// With workers > 1, N executor threads pull from the queue — each under a
/// private ExecutionContext/ThreadPool slice — and a writer thread emits
/// result lines in completion order (clients correlate by "id"). The result
/// *set* is identical across worker counts for the same input. Returns the
/// session totals.
ServeStats serve_session(std::istream& in, std::ostream& out,
                         Service& service);

}  // namespace svsim::svc
