// A fixed-size thread pool with a fork-join parallel_for.
//
// State-vector kernels are embarrassingly parallel over the amplitude index
// space; all we need is a static-partition fork-join loop with low per-gate
// overhead (a gate on a small register takes microseconds, so re-spawning
// std::thread per gate would dominate). Workers block on a condition
// variable between parallel regions.
//
// The pool also exposes `parallel_reduce` for norms/probabilities and a
// per-worker RNG substream facility for parallel sampling.
//
// Grain rule. A region is `count` items, each touching `item_bytes` bytes of
// memory. It forks only when every worker that would get a share gets at
// least kForkGrainBytes; otherwise it runs inline on the caller. Call sites
// state what an item touches, so the rule is in bytes, not item counts, and
// one constant serves 1-amplitude items, 4-amplitude items and L2-sized
// blocks alike.
//
// kForkGrainBytes comes from the measured crossover below: microseconds
// per call on a 1-thread pool (inline) and on a 4-thread pool forced to
// fork (grain 0), f64, median of 7 repeats, 4-core Xeon VM, GCC 12 -O3
// -march=native. probability_of_one reads half the state, apply_h reads
// and writes all of it; "/worker" is the bytes each of the 4 shares gets.
//
//    n   state   probability_of_one(n-1)    apply_h(0)
//                1t     4t    KiB/worker    1t     4t    KiB/worker
//   10   16 KiB   2.0   16.0      2         2.8   16.4      4
//   11   32 KiB   5.2   18.1      4         6.1   17.2      8
//   12   64 KiB   9.8   18.8      8         9.1   16.9     16
//   13  128 KiB  14.8   22.2     16        22.8   19.8     32
//   14  256 KiB  19.0   26.3     32        33.3   26.5     64
//   15  512 KiB  27.3   29.3     64        75.1   40.7    128
//   16    1 MiB  74.5   40.5    128       141.0   64.0    256
//   17    2 MiB 126.3   57.7    256       281.9  122.0    512
//   18    4 MiB 262.0   89.6    512       640.3  233.1   1024
//
// A fork-join costs about 16 us here, so forking breaks even at 32-64 KiB
// per worker for both kernels and wins from 128 KiB. G = 64 KiB forks
// apply_h from n = 14 and probability_of_one from n = 15, and keeps every
// region of a state up to 128 KiB (n <= 13, f64) on the caller.
//
// There is no runtime probe: the constant is fixed at compile time. The
// fork-join cost is a few wake-ups and a condition-variable handshake, and
// it moves by small factors across hosts, while the grain only needs to be
// right within a factor of two to avoid both losses (forking a 16 KiB
// state, or running a 4 MiB state on one core). A probe would also run
// inside ThreadPool::global(), whose construction is on the service's
// timed startup path.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace svsim {

/// Describes how a range [0, count) is split across `num_workers` workers:
/// contiguous static chunks, remainder spread over the first chunks.
struct Partition {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Computes worker `w`'s chunk of [0, count) under static partitioning.
inline Partition static_partition(std::uint64_t count, unsigned num_workers,
                                  unsigned w) noexcept {
  const std::uint64_t base = count / num_workers;
  const std::uint64_t rem = count % num_workers;
  const std::uint64_t begin =
      w * base + (w < rem ? w : static_cast<std::uint64_t>(rem));
  const std::uint64_t len = base + (w < rem ? 1 : 0);
  return {begin, begin + len};
}

/// NUMA/CMG-aware thread-pinning policy.
///
/// State-vector kernels and the first-touch page placement both use the
/// same static partition of the amplitude space, so once a worker is pinned
/// to a core it keeps streaming pages homed on that core's memory domain.
/// `Compact` fills domain 0 first (one memory controller active at low
/// thread counts — the paper's compact-affinity curve); `Scatter`
/// round-robins workers across domains so every HBM stack / memory
/// controller is active from `num_domains` threads up.
struct PinPolicy {
  enum class Mode { None, Compact, Scatter };
  Mode mode = Mode::None;
  /// NUMA domains (CMGs / sockets) to spread across; >= 1.
  unsigned num_domains = 1;
  /// Total cores to place onto (0 = hardware_concurrency).
  unsigned num_cores = 0;
};

/// CPU id worker `w` of `num_workers` lands on under `policy` (pure, so the
/// placement function is unit-testable without touching the OS). Compact:
/// cpu = w. Scatter: domain d = w mod D, slot = w div D, cpu = d *
/// (cores/D) + slot. CPUs wrap modulo the core count when oversubscribed.
unsigned pin_cpu_for_worker(const PinPolicy& policy, unsigned w,
                            unsigned num_workers) noexcept;

/// Policy from the environment: SVSIM_PIN = "none" | "compact" |
/// "scatter[:domains]" (e.g. "scatter:4" for an A64FX-like 4-CMG spread).
/// Unset/unrecognized -> Mode::None.
PinPolicy pin_policy_from_env();

/// Bytes each worker must touch for a region to fork (see the header
/// comment for the measured crossover).
inline constexpr std::uint64_t kForkGrainBytes = std::uint64_t{64} << 10;

/// Cumulative counters of what a pool has executed. Observability hook for
/// the obs layer (which mirrors these into its metrics registry); kept here
/// as plain atomics so `common` stays dependency-free.
struct PoolStats {
  std::uint64_t parallel_regions = 0;  ///< regions forked across workers
  std::uint64_t inline_regions = 0;    ///< regions run inline (grain/nested)
  std::uint64_t items = 0;             ///< total loop iterations dispatched
};

/// Fork-join worker pool. Thread-safe for one parallel region at a time;
/// nested parallelism is not supported (inner calls run sequentially on the
/// calling thread, which is the behaviour kernels want).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = std::thread::hardware_concurrency()).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (>= 1). Worker 0 is the calling thread.
  unsigned num_threads() const noexcept {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// True when a region of `count` items of `item_bytes` each passes the
  /// grain rule: at least two workers get a share and every share is at
  /// least kForkGrainBytes. Always false on a one-thread pool.
  bool forks(std::uint64_t count, std::uint64_t item_bytes) const noexcept {
    const std::uint64_t workers = std::min<std::uint64_t>(count,
                                                          num_threads());
    return workers >= 2 && count / workers * item_bytes >= kForkGrainBytes;
  }

  /// Runs body(worker_index, begin, end) on every worker with a static
  /// partition of [0, count), each item touching `item_bytes` bytes. Blocks
  /// until all workers finish. Runs inline on the caller when the region
  /// fails the grain rule (forks()) or is nested in another region.
  void parallel_for(std::uint64_t count, std::uint64_t item_bytes,
                    const std::function<void(unsigned, std::uint64_t,
                                             std::uint64_t)>& body);

  /// Parallel sum-reduction: each worker computes body(worker, begin, end)
  /// and the partial results are summed on the caller. Same grain rule as
  /// parallel_for.
  double parallel_reduce(std::uint64_t count, std::uint64_t item_bytes,
                         const std::function<double(unsigned, std::uint64_t,
                                                    std::uint64_t)>& body);

  /// Pins every worker (including the caller, which acts as worker 0) to
  /// the CPU pin_cpu_for_worker assigns it. Returns false — and pins
  /// nothing — when the policy is Mode::None or the platform has no
  /// affinity support; pinning is best-effort and idempotent.
  bool pin_threads(const PinPolicy& policy);

  /// True after a successful pin_threads call.
  bool pinned() const noexcept { return pinned_; }

  /// Deterministic per-worker RNG substream derived from `seed`.
  /// Re-seeds all streams; call once per stochastic run.
  void seed_rngs(std::uint64_t seed);

  /// RNG stream of worker `w`. Valid after seed_rngs().
  Xoshiro256& rng(unsigned w) {
    SVSIM_ASSERT(w < rngs_.size());
    return rngs_[w];
  }

  /// Snapshot of the execution counters (relaxed; monotonic per field).
  PoolStats stats() const noexcept {
    return {stat_parallel_.load(std::memory_order_relaxed),
            stat_inline_.load(std::memory_order_relaxed),
            stat_items_.load(std::memory_order_relaxed)};
  }

  /// Zeroes the execution counters.
  void reset_stats() noexcept {
    stat_parallel_.store(0, std::memory_order_relaxed);
    stat_inline_.store(0, std::memory_order_relaxed);
    stat_items_.store(0, std::memory_order_relaxed);
  }

  /// Shared process-wide pool sized to hardware concurrency. Lazily created.
  static ThreadPool& global();

 private:
  void worker_loop(unsigned worker_index);

  std::vector<std::thread> threads_;
  std::vector<Xoshiro256> rngs_;
  bool pinned_ = false;

  std::atomic<std::uint64_t> stat_parallel_{0};
  std::atomic<std::uint64_t> stat_inline_{0};
  std::atomic<std::uint64_t> stat_items_{0};

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // Generation counter: workers run the stored job once per increment.
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stopping_ = false;
  std::atomic<bool> in_parallel_region_{false};

  // Current job, valid while pending_ > 0.
  const std::function<void(unsigned, std::uint64_t, std::uint64_t)>* job_ =
      nullptr;
  std::uint64_t job_count_ = 0;
};

}  // namespace svsim
