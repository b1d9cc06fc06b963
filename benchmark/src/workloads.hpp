// The four workloads. Each runs in its own process and fills one Report.
#pragma once

#include <memory>

#include "util.hpp"

namespace bench {

/// The top-level object a workload builds before its first operation (the
/// Simulator of the large workloads, the Service of the service ones), as
/// its run builds it; what setup_s times besides the pool and the SIMD
/// backend.
std::shared_ptr<void> construct_large();
std::shared_ptr<void> construct_svc_sampled();
std::shared_ptr<void> construct_svc_trajectory();

/// QV n=25 depth 8, fused (w3) and blocked, f64, 1000 shots, repeated
/// `svsim run`-equivalent runs on the process-wide pool.
Report run_qv_large(const Options& opt);

/// QFT n=25 on a seed-chosen basis input, same options as qv_large.
Report run_qft_large(const Options& opt);

/// Closed loop of small noiseless jobs through serve_session with one
/// worker per core.
Report run_svc_sampled(const Options& opt);

/// Closed loop of small noisy trajectory jobs through serve_session with
/// the default single worker.
Report run_svc_trajectory(const Options& opt);

}  // namespace bench
