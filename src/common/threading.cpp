#include "common/threading.hpp"

#include <cstdlib>
#include <numeric>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace svsim {

unsigned pin_cpu_for_worker(const PinPolicy& policy, unsigned w,
                            unsigned num_workers) noexcept {
  unsigned cores = policy.num_cores;
  if (cores == 0) cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = num_workers > 0 ? num_workers : 1;
  if (policy.mode == PinPolicy::Mode::Scatter && policy.num_domains > 1 &&
      cores >= policy.num_domains) {
    const unsigned domains = policy.num_domains;
    const unsigned per_domain = cores / domains;
    const unsigned domain = w % domains;
    const unsigned slot = w / domains;
    return (domain * per_domain + slot % per_domain) % cores;
  }
  // Compact (and degenerate scatter): fill cores in order.
  return w % cores;
}

PinPolicy pin_policy_from_env() {
  PinPolicy policy;
  const char* env = std::getenv("SVSIM_PIN");
  if (env == nullptr) return policy;
  std::string v(env);
  if (v == "compact") {
    policy.mode = PinPolicy::Mode::Compact;
  } else if (v.rfind("scatter", 0) == 0) {
    policy.mode = PinPolicy::Mode::Scatter;
    policy.num_domains = 2;
    const auto colon = v.find(':');
    if (colon != std::string::npos) {
      const unsigned long d = std::strtoul(v.c_str() + colon + 1, nullptr, 10);
      if (d >= 1 && d <= 1024) policy.num_domains = static_cast<unsigned>(d);
    }
  }
  return policy;
}

namespace {

/// Pins `handle` (or the calling thread when null) to `cpu`. Returns false
/// when the platform has no affinity API.
bool pin_native_thread(std::thread::native_handle_type handle, unsigned cpu,
                       bool self) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % CPU_SETSIZE, &set);
  const pthread_t target = self ? pthread_self() : handle;
  return pthread_setaffinity_np(target, sizeof(set), &set) == 0;
#else
  (void)handle;
  (void)cpu;
  (void)self;
  return false;
#endif
}

}  // namespace

bool ThreadPool::pin_threads(const PinPolicy& policy) {
  if (policy.mode == PinPolicy::Mode::None) return false;
  const unsigned n = num_threads();
  bool ok = pin_native_thread({}, pin_cpu_for_worker(policy, 0, n),
                              /*self=*/true);
  for (unsigned w = 1; w < n; ++w) {
    ok = pin_native_thread(threads_[w - 1].native_handle(),
                           pin_cpu_for_worker(policy, w, n),
                           /*self=*/false) &&
         ok;
  }
  pinned_ = ok;
  return ok;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  unsigned n = num_threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  rngs_.resize(n);
  seed_rngs(0x5eedULL);
  // Worker 0 is the caller; spawn n-1 helpers.
  threads_.reserve(n - 1);
  for (unsigned w = 1; w < n; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::seed_rngs(std::uint64_t seed) {
  Xoshiro256 root(seed);
  for (unsigned w = 0; w < rngs_.size(); ++w) rngs_[w] = root.split(w);
}

void ThreadPool::worker_loop(unsigned worker_index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(unsigned, std::uint64_t, std::uint64_t)>* job;
    std::uint64_t count;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      job = job_;
      count = job_count_;
    }
    const Partition p = static_partition(count, num_threads(), worker_index);
    if (p.begin < p.end) (*job)(worker_index, p.begin, p.end);
    {
      std::lock_guard lock(mutex_);
      --pending_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::uint64_t count, std::uint64_t item_bytes,
    const std::function<void(unsigned, std::uint64_t, std::uint64_t)>& body) {
  const unsigned n = num_threads();
  // Run inline when parallelism can't pay for its fork-join cost (which
  // covers a pool with no helpers) or when called from inside a parallel
  // region (nested).
  if (!forks(count, item_bytes) || in_parallel_region_) {
    stat_inline_.fetch_add(1, std::memory_order_relaxed);
    stat_items_.fetch_add(count, std::memory_order_relaxed);
    if (count > 0) body(0, 0, count);
    return;
  }
  stat_parallel_.fetch_add(1, std::memory_order_relaxed);
  stat_items_.fetch_add(count, std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    job_ = &body;
    job_count_ = count;
    pending_ = n - 1;
    ++generation_;
    in_parallel_region_ = true;
  }
  cv_start_.notify_all();
  const Partition p = static_partition(count, n, 0);
  if (p.begin < p.end) body(0, p.begin, p.end);
  {
    std::unique_lock lock(mutex_);
    cv_done_.wait(lock, [&] { return pending_ == 0; });
    job_ = nullptr;
    in_parallel_region_ = false;
  }
}

double ThreadPool::parallel_reduce(
    std::uint64_t count, std::uint64_t item_bytes,
    const std::function<double(unsigned, std::uint64_t, std::uint64_t)>& body) {
  if (!forks(count, item_bytes) || in_parallel_region_) {
    stat_inline_.fetch_add(1, std::memory_order_relaxed);
    stat_items_.fetch_add(count, std::memory_order_relaxed);
    return count > 0 ? body(0, 0, count) : 0.0;
  }
  // Pad partials to separate cache lines to avoid false sharing.
  struct alignas(64) Padded {
    double value = 0.0;
  };
  std::vector<Padded> partials(num_threads());
  parallel_for(count, item_bytes,
               [&](unsigned w, std::uint64_t begin, std::uint64_t end) {
                 partials[w].value = body(w, begin, end);
               });
  double total = 0.0;
  for (const auto& p : partials) total += p.value;
  return total;
}

ThreadPool& ThreadPool::global() {
  // First-touch NUMA placement only pays off if workers stay on the cores
  // whose memory they touched, so the shared pool honours SVSIM_PIN once at
  // creation (no-op when unset).
  static ThreadPool pool;
  static const bool pinned [[maybe_unused]] =
      pool.pin_threads(pin_policy_from_env());
  return pool;
}

}  // namespace svsim
