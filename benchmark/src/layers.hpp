// The traced run: per-layer metrics from replaying a workload's jobs.
#pragma once

#include <string>
#include <vector>

#include "svc/service.hpp"

#include "pipeline.hpp"
#include "util.hpp"

namespace bench {

/// Per-layer inputs only the untraced run can measure.
struct UntracedFacts {
  /// sum(latency - the result's own total_seconds) / sum(latency) over ok
  /// jobs; 0 where no queue exists (back-to-back runs).
  double queue_wait_share = 0.0;
  /// sum(job seconds) / (workers x wall).
  double busy_share = 0.0;
  /// Plan-cache hits / lookups of the untraced session (0 where no cache
  /// is used).
  double cache_hit_ratio = 0.0;
};

/// Replays `candidates` (in order, as many as fit in `budget_s` untraced,
/// at least one) through the Pipeline four times: untraced, traced with
/// the phase profiler installed, on a one-thread pool, and through a fresh
/// Service::run_job whose counts must equal the traced pass's. Adds every
/// per-layer metric to `report` and writes the Chrome trace and per-layer
/// summary into opt.out_dir.
void measure_layers(const Options& opt,
                    const std::vector<JobSpec>& candidates,
                    const svsim::svc::ServiceOptions& service_options,
                    unsigned worker_threads, double budget_s,
                    const UntracedFacts& facts, Report& report);

}  // namespace bench
