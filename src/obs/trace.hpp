// Runtime gate-span tracer: what the simulator *actually did*, when.
//
// The perf layer (`src/perf`) predicts per-gate cost from first principles;
// this tracer records the measured counterpart — one span per applied
// gate/fused block (and per fusion pass / collective call) with wall-clock
// nanoseconds, operand qubits, innermost stride, and estimated bytes
// streamed. Spans land in per-thread ring buffers so recording is lock-free
// on the hot path and bounded in memory; `collect()` merges and orders them,
// and `write_chrome_json()` emits the Chrome trace-event format that
// chrome://tracing and Perfetto load directly.
//
// Tracing is off by default. When disabled, the instrumentation in the
// execution layers reduces to one relaxed atomic load per run (not per
// gate), so benchmarks are unaffected.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "common/table.hpp"

namespace svsim::obs {

/// What a span measures. `Kernel` spans are the per-gate unit of the
/// span listing and the kernel-bandwidth table.
enum class SpanCategory : std::uint8_t {
  Kernel,      ///< one gate / fused block applied to the state
  Measure,     ///< MEASURE / RESET (stochastic, collapses the state)
  Fusion,      ///< a whole fusion pass over a circuit
  Collective,  ///< a distributed-timing / collective-model evaluation
  Region,      ///< generic user-scoped region
};

const char* span_category_name(SpanCategory category);

/// One recorded event. POD, fixed-size: rings hold these by value.
struct Span {
  std::array<char, 16> name{};  ///< kernel mnemonic, nul-terminated
  SpanCategory category = SpanCategory::Region;
  std::uint8_t num_qubits = 0;   ///< operand count of the traced gate
  std::uint16_t thread = 0;      ///< recording thread (registration order)
  std::uint32_t q0 = kNoQubit;   ///< first operand qubit
  std::uint32_t q1 = kNoQubit;   ///< second operand qubit
  std::uint64_t stride = 0;      ///< amplitude distance of the pair loop
  std::uint64_t bytes = 0;       ///< estimated bytes streamed
  std::uint64_t start_ns = 0;    ///< since tracer epoch
  std::uint64_t duration_ns = 0;
  std::uint64_t seq = 0;         ///< global record order (tie-break)

  static constexpr std::uint32_t kNoQubit = ~std::uint32_t{0};

  /// Achieved bandwidth of this span, GB/s (0 if instantaneous).
  double gbps() const noexcept {
    return duration_ns > 0
               ? static_cast<double>(bytes) / static_cast<double>(duration_ns)
               : 0.0;
  }
};

/// Process-wide tracer with per-thread ring buffers.
///
/// Typical use:
///   auto& tr = Tracer::global();
///   tr.clear(); tr.enable();
///   ... run circuits ...
///   tr.disable();
///   tr.write_chrome_json(file);
class Tracer {
 public:
  /// Ring capacity in spans per recording thread.
  explicit Tracer(std::size_t capacity_per_thread = 1u << 16);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Shared process-wide tracer (what the execution layers record into).
  static Tracer& global();

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops all recorded spans (thread registrations persist).
  void clear();

  /// Nanoseconds since this tracer's epoch (monotonic).
  std::uint64_t now_ns() const noexcept;

  /// Records a span ending now. `qubits`/`nq` may be null/0. No-op when
  /// disabled. Lock-free after the calling thread's first record.
  void record_span(const char* name, SpanCategory category,
                   const unsigned* qubits, std::size_t nq, std::uint64_t stride,
                   std::uint64_t bytes, std::uint64_t start_ns);

  /// Records a fully-populated span (thread/seq fields are overwritten).
  void record(Span span);

  /// All retained spans, merged across threads, ordered by (start_ns, seq).
  std::vector<Span> collect() const;

  /// Spans recorded since construction/clear() (including overwritten ones).
  std::uint64_t total_recorded() const;
  /// Spans lost to ring wraparound.
  std::uint64_t dropped() const;

  /// Chrome trace-event JSON ("X" complete events, µs timestamps) —
  /// loadable in chrome://tracing and Perfetto.
  void write_chrome_json(std::ostream& os) const;

 private:
  struct ThreadRing;
  ThreadRing& ring_for_this_thread();

  const std::size_t capacity_;
  const std::uint64_t id_;  ///< process-unique (thread-local cache key)
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seq_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;  ///< guards rings_ registration and collect()
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

/// RAII region span recorded into Tracer::global() (if enabled at entry).
/// The two-argument form resolves the global tracer; pass an explicit
/// tracer (e.g. ExecutionContext::tracer()) to record elsewhere.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, SpanCategory category);
  ScopedSpan(const char* name, SpanCategory category, Tracer& tracer);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const noexcept { return tracer_ != nullptr; }
  void set_bytes(std::uint64_t bytes) noexcept { bytes_ = bytes; }

 private:
  Tracer* tracer_ = nullptr;
  const char* name_;
  SpanCategory category_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Per-span listing (measured counterpart of perf::trace_table's phases).
Table span_table(const std::vector<Span>& spans, std::size_t max_rows = 32);

/// Aggregation per span name: count, total time, bytes, achieved GB/s —
/// the measured per-kernel-class bandwidth table.
Table kernel_bandwidth_table(const std::vector<Span>& spans);

}  // namespace svsim::obs
