#pragma once

#include <cstdint>

#include "common/aligned_buffer.hpp"
#include "common/threading.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace svsim {

/// Resolved execution configuration carried by an ExecutionContext. Plain
/// numbers rather than layer types: obs sits below sv, so the SIMD ISA is
/// stored as its raw enumerator value (sv/simd pins the correspondence with
/// a static_assert) and precision as the amplitude component width in bytes.
struct ContextConfig {
  /// Raw sv::simd::Isa value of the backend this context expects, or -1 to
  /// use whatever backend is active process-wide.
  int simd_isa = -1;
  /// Amplitude component width: 4 (f32) or 8 (f64).
  unsigned element_bytes = 8;
  /// Per-plan cache budget in bytes; 0 resolves per plan from the machine
  /// spec (sv::plan_cache_budget).
  std::uint64_t cache_budget_bytes = 0;
};

/// Bundles the execution-scoped services the stack used to reach for via
/// process-wide singletons: a metrics registry, a tracer, an optional
/// profiler hook, a ThreadPool slice, and the resolved numeric config.
///
/// A default-constructed context resolves every service to the process-wide
/// singleton (`MetricsRegistry::global()`, `Tracer::global()`,
/// `Profiler::current()`, `ThreadPool::global()`), so call sites that take
/// `const ExecutionContext& ctx = ExecutionContext::global()` behave exactly
/// as before the refactor. Builders override individual services:
///
///   obs::MetricsRegistry my_metrics;
///   ThreadPool my_pool(4);
///   ExecutionContext ctx;
///   ctx.with_metrics(my_metrics).with_pool(my_pool);
///   sv::run_plan(state, plan, {}, ctx);   // counters land in my_metrics
///
/// A context may also lend a state buffer: Simulator::run_shots builds its
/// sampled-mode state there instead of allocating one, so a serve worker
/// reuses the same pages job after job. A context with a buffer serves one
/// run at a time (copies share the buffer).
///
/// Contexts are cheap value types (a few pointers); they do not own the
/// services they reference. The caller keeps registries and pools alive for
/// as long as any context pointing at them is in use. Resolution happens at
/// call time, never at first use: nothing downstream may cache a resolved
/// `Counter&` in a function-local static (the stale-handle bug this type
/// exists to eliminate — see tests/test_context.cpp).
class ExecutionContext {
 public:
  ExecutionContext() = default;

  /// Metrics registry counters/gauges/histograms resolve against.
  obs::MetricsRegistry& metrics() const noexcept {
    return metrics_ != nullptr ? *metrics_ : obs::MetricsRegistry::global();
  }

  /// Tracer spans record into.
  obs::Tracer& tracer() const noexcept {
    return tracer_ != nullptr ? *tracer_ : obs::Tracer::global();
  }

  /// Profiler hook, or nullptr when profiling is off. By default this
  /// follows the process-wide installed profiler dynamically (so a
  /// `Profiler::install()` mid-run is observed); `with_profiler` pins an
  /// explicit profiler, and `with_profiler(nullptr)` suppresses profiling
  /// for this context even while one is installed globally.
  obs::Profiler* profiler() const noexcept {
    return follow_installed_profiler_ ? obs::Profiler::current() : profiler_;
  }

  /// ThreadPool amplitude loops fork onto.
  ThreadPool& pool() const noexcept {
    return pool_ != nullptr ? *pool_ : ThreadPool::global();
  }

  const ContextConfig& config() const noexcept { return config_; }

  /// Buffer a sampled run builds its state in, or nullptr (allocate).
  LentBuffer* state_buffer() const noexcept { return state_buffer_; }

  ExecutionContext& with_metrics(obs::MetricsRegistry& registry) noexcept {
    metrics_ = &registry;
    return *this;
  }
  ExecutionContext& with_tracer(obs::Tracer& tracer) noexcept {
    tracer_ = &tracer;
    return *this;
  }
  ExecutionContext& with_profiler(obs::Profiler* profiler) noexcept {
    follow_installed_profiler_ = false;
    profiler_ = profiler;
    return *this;
  }
  ExecutionContext& with_pool(ThreadPool& pool) noexcept {
    pool_ = &pool;
    return *this;
  }
  ExecutionContext& with_config(const ContextConfig& config) noexcept {
    config_ = config;
    return *this;
  }
  ExecutionContext& with_state_buffer(LentBuffer& buffer) noexcept {
    state_buffer_ = &buffer;
    return *this;
  }

  /// The process-default context: every service resolves to the singleton.
  static const ExecutionContext& global() noexcept;

 private:
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  bool follow_installed_profiler_ = true;
  ThreadPool* pool_ = nullptr;
  LentBuffer* state_buffer_ = nullptr;
  ContextConfig config_;
};

}  // namespace svsim
