#include "sv/engine.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sv/kernels.hpp"
#include "sv/simd/simd.hpp"
#include "sv/simulator.hpp"

namespace svsim::sv {

using qc::Gate;
using qc::GateKind;

// The profiler mirrors the phase vocabulary numerically (obs cannot see
// sv::PhaseKind); pin the correspondence here, next to the executor that
// casts between them.
static_assert(obs::kProfilePhaseLocalSweep ==
              static_cast<std::uint8_t>(PhaseKind::LocalSweep));
static_assert(obs::kProfilePhaseDenseGate ==
              static_cast<std::uint8_t>(PhaseKind::DenseGate));
static_assert(obs::kProfilePhaseExchange ==
              static_cast<std::uint8_t>(PhaseKind::Exchange));
static_assert(obs::kProfilePhaseMeasureFlush ==
              static_cast<std::uint8_t>(PhaseKind::MeasureFlush));

namespace {

std::atomic<PlanCaptureScope*> g_plan_capture{nullptr};

}  // namespace

PlanCaptureScope::PlanCaptureScope() {
  PlanCaptureScope* expected = nullptr;
  require(g_plan_capture.compare_exchange_strong(expected, this,
                                                 std::memory_order_acq_rel),
          "PlanCaptureScope: another capture scope is already open");
}

PlanCaptureScope::~PlanCaptureScope() {
  PlanCaptureScope* expected = this;
  g_plan_capture.compare_exchange_strong(expected, nullptr,
                                         std::memory_order_acq_rel);
}

PlanCaptureScope* PlanCaptureScope::current() noexcept {
  return g_plan_capture.load(std::memory_order_acquire);
}

void PlanCaptureScope::add(const ExecutionPlan& plan) {
  std::lock_guard lock(mutex_);
  plans_.push_back(plan);
}

std::vector<ExecutionPlan> PlanCaptureScope::plans() const {
  std::lock_guard lock(mutex_);
  return plans_;
}

namespace {

// Metric handles are resolved from the context's registry on every call —
// never cached in function-local statics, which would pin the first
// registry forever and miscount under per-context registries.
void observe_sweep(obs::MetricsRegistry& registry, std::size_t gates,
                   std::uint64_t traversal_bytes) {
  registry.counter("sv.sweeps").increment();
  registry.counter("sv.sweep_gates").add(gates);
  registry.counter("sv.sweep_bytes").add(traversal_bytes);
}

/// Estimated bytes a gate's kernel streams on a 2^n state: a read and a
/// write of each amplitude the kernel touches (sv::kernel_work); MEASURE
/// and RESET read the state and write about half of it. Deliberately
/// simple — the line-granular traffic model lives in perf::gate_cost; this
/// is the label attached to measured trace spans so per-kernel GB/s can be
/// derived at runtime.
template <typename T>
std::uint64_t approx_streamed_bytes(const Gate& g, unsigned n) {
  const std::uint64_t state_bytes = pow2(n) * 2 * sizeof(T);
  if (g.kind == GateKind::MEASURE || g.kind == GateKind::RESET)
    return state_bytes * 3 / 2;
  return static_cast<std::uint64_t>(2.0 * static_cast<double>(state_bytes) *
                                    kernel_work(g).touched_share());
}

/// Amplitude distance between paired elements in the innermost loop.
std::uint64_t pair_stride(const Gate& g) {
  const auto targets = g.targets();
  if (targets.empty()) return 0;
  return pow2(*std::min_element(targets.begin(), targets.end()));
}

void observe_plan_execution(obs::MetricsRegistry& registry,
                            const EngineStats& stats, std::size_t phases,
                            std::size_t executions) {
  registry.counter("plan.executions").add(executions);
  registry.counter("plan.phases_executed").add(phases * executions);
  registry.counter("plan.exchanges_applied").add(stats.exchanges);
}

}  // namespace

namespace {

/// Pre-casts `count` block-local gates for precision T, validating block
/// locality. Shared by the single-state sweep and the batch executor (which
/// prepares once per sweep for the whole batch).
template <typename T>
std::vector<PreparedGate<T>> prepare_sweep(const Gate* gates,
                                           std::size_t count,
                                           unsigned block_qubits,
                                           obs::MetricsRegistry& registry) {
  std::vector<PreparedGate<T>> prepared;
  prepared.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    for (unsigned q : gates[i].qubits)
      require(q < block_qubits, "run_sweep: gate operand crosses the block "
                                "boundary (not block-local)");
    prepared.push_back(prepare_gate<T>(gates[i]));
    simd::count_dispatch(prepared.back().cls, registry);
  }
  return prepared;
}

/// The block loop of one sweep over one state, gates already prepared. A
/// block of 2^b amplitudes is, for a gate with k counter bits, the counter
/// range [blk * 2^(b-k), (blk + 1) * 2^(b-k)) of the same table entries
/// apply_prepared uses, so blocking does not change any amplitude's
/// arithmetic.
template <typename T>
void run_sweep_prepared(StateVector<T>& state, const PreparedGate<T>* pgs,
                        std::size_t count, unsigned block_qubits) {
  std::complex<T>* psi = state.data();
  const unsigned b = block_qubits;
  const std::uint64_t num_blocks = pow2(state.num_qubits() - b);
  // An item is one block; the static partition mirrors the first-touch
  // layout.
  state.pool().parallel_for(
      num_blocks, detail::amp_bytes<T>(pow2(b)),
      [psi, pgs, count, b](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t blk = lo; blk < hi; ++blk) {
          for (std::size_t g = 0; g < count; ++g) {
            const unsigned shift = b - pgs[g].counter_bits;
            apply_range(psi, pgs[g], blk << shift, (blk + 1) << shift);
          }
        }
      });
}

}  // namespace

template <typename T>
void run_sweep(StateVector<T>& state, const Gate* gates, std::size_t count,
               unsigned block_qubits, const ExecutionContext& ctx) {
  const unsigned n = state.num_qubits();
  require(block_qubits >= 1 && block_qubits <= n,
          "run_sweep: block_qubits out of range");
  if (count == 0) return;

  const std::vector<PreparedGate<T>> prepared =
      prepare_sweep<T>(gates, count, block_qubits, ctx.metrics());

  obs::Tracer& tracer = ctx.tracer();
  const bool tracing = tracer.enabled();
  const std::uint64_t start_ns = tracing ? tracer.now_ns() : 0;

  run_sweep_prepared(state, prepared.data(), count, block_qubits);

  // One read + one write of the state serves the whole sweep (in-block
  // traffic stays in cache); this is the bytes label trace viewers see
  // for the sweep span.
  const std::uint64_t traversal_bytes =
      2 * pow2(n) * std::uint64_t{2 * sizeof(T)};
  observe_sweep(ctx.metrics(), count, traversal_bytes);
  if (tracing) {
    tracer.record_span("sweep", obs::SpanCategory::Kernel, nullptr, 0,
                       /*stride=*/pow2(block_qubits), traversal_bytes,
                       start_ns);
  }
}

template <typename T>
EngineStats run_plan(StateVector<T>& state, const ExecutionPlan& plan,
                     const PlanHooks<T>& hooks, const ExecutionContext& ctx) {
  const unsigned n = state.num_qubits();
  require(n == plan.num_qubits, "run_plan: state/plan width mismatch");

  EngineStats stats;
  obs::Tracer& tracer = ctx.tracer();
  const bool tracing = tracer.enabled();

  // Plan-phase profiling: one relaxed load when idle; when a profiler is
  // installed (or the context pins one), each phase is bracketed with clock
  // reads, a bytes delta, a tracer-drop delta (ring overflow => partial
  // report), and — on request — a perf_event counter scope. Cost-only
  // phases still get a (near-zero) sample so sample i always describes
  // plan.phases[i].
  obs::Profiler* const prof = ctx.profiler();
  if (PlanCaptureScope* capture = PlanCaptureScope::current())
    capture->add(plan);
  std::uint64_t run_start = 0;
  std::uint64_t run_drops_before = 0;
  if (prof != nullptr) {
    obs::RunProfile meta;
    meta.num_qubits = plan.num_qubits;
    meta.node_qubits = plan.node_qubits;
    meta.local_qubits = plan.local_qubits;
    meta.block_qubits = plan.block_qubits;
    meta.threads = state.pool().num_threads();
    meta.phases_planned = plan.phases.size();
    run_start = prof->now_ns();
    meta.start_ns = run_start;
    prof->begin_run(meta);
    run_drops_before = tracer.dropped();
  }

  for (std::size_t phase_index = 0; phase_index < plan.phases.size();
       ++phase_index) {
    const PlanPhase& phase = plan.phases[phase_index];
    const std::uint64_t bytes_before = stats.bytes_streamed;
    const std::uint64_t drops_before =
        prof != nullptr ? tracer.dropped() : 0;
    const std::uint64_t phase_start = prof != nullptr ? prof->now_ns() : 0;
    std::optional<obs::HwCounterScope> hw;
    if (prof != nullptr && prof->hw_counters()) hw.emplace();
    switch (phase.kind) {
      case PhaseKind::LocalSweep: {
        run_sweep(state, phase.gates.data(), phase.gates.size(),
                  plan.block_qubits, ctx);
        ++stats.sweeps;
        ++stats.traversals;
        stats.blocked_gates += phase.gates.size();
        stats.bytes_streamed += 2 * pow2(n) * std::uint64_t{2 * sizeof(T)};
        break;
      }
      case PhaseKind::DenseGate: {
        for (const auto& g : phase.gates) {
          const std::uint64_t gate_bytes = approx_streamed_bytes<T>(g, n);
          const std::uint64_t start_ns = tracing ? tracer.now_ns() : 0;
          apply_gate(state, g);
          if (hooks.after_gate) hooks.after_gate(state, g);
          if (tracing) {
            tracer.record_span(g.name(), obs::SpanCategory::Kernel,
                               g.qubits.data(), g.qubits.size(),
                               pair_stride(g), gate_bytes, start_ns);
          }
          stats.bytes_streamed += gate_bytes;
          if (g.kind != GateKind::I && g.kind != GateKind::BARRIER) {
            ++stats.passthrough_gates;
            ++stats.traversals;
          }
        }
        break;
      }
      case PhaseKind::Exchange: {
        if (!phase.moves_data) break;  // cost-only window marker
        for (const auto& h : phase.hops) {
          const Gate swap_gate = Gate::swap(h.local_slot, h.node_slot);
          const std::uint64_t swap_bytes =
              approx_streamed_bytes<T>(swap_gate, n);
          const std::uint64_t start_ns = tracing ? tracer.now_ns() : 0;
          apply_gate(state, swap_gate);
          if (tracing) {
            tracer.record_span("exchange", obs::SpanCategory::Collective,
                               swap_gate.qubits.data(), 2,
                               pair_stride(swap_gate), swap_bytes, start_ns);
          }
          ++stats.exchanges;
          stats.bytes_streamed += swap_bytes;
        }
        break;
      }
      case PhaseKind::MeasureFlush: {
        require(static_cast<bool>(hooks.measure),
                "run_plan: MEASURE/RESET need a Simulator (no measure hook)");
        for (const auto& g : phase.gates) {
          const std::uint64_t gate_bytes = approx_streamed_bytes<T>(g, n);
          const std::uint64_t start_ns = tracing ? tracer.now_ns() : 0;
          hooks.measure(state, g);
          if (tracing) {
            tracer.record_span(g.name(), obs::SpanCategory::Measure,
                               g.qubits.data(), g.qubits.size(),
                               pair_stride(g), gate_bytes, start_ns);
          }
          ++stats.measure_ops;
          ++stats.traversals;
          stats.bytes_streamed += gate_bytes;
        }
        break;
      }
    }
    if (prof != nullptr) {
      obs::PhaseSample sample;
      sample.index = static_cast<std::uint32_t>(phase_index);
      sample.kind = static_cast<std::uint8_t>(phase.kind);
      sample.gates = static_cast<std::uint32_t>(phase.gates.size());
      sample.hops = static_cast<std::uint32_t>(phase.hops.size());
      sample.threads = state.pool().num_threads();
      sample.bytes = stats.bytes_streamed - bytes_before;
      sample.start_ns = phase_start;
      sample.duration_ns = prof->now_ns() - phase_start;
      sample.dropped_spans = tracer.dropped() - drops_before;
      if (hw.has_value()) sample.hw = hw->stop();
      prof->record_phase(std::move(sample));
    }
  }

  if (prof != nullptr)
    prof->end_run(prof->now_ns() - run_start,
                  tracer.dropped() > run_drops_before);

  observe_plan_execution(ctx.metrics(), stats, plan.phases.size(),
                         /*executions=*/1);
  return stats;
}

template <typename T>
EngineStats run_plan_batch(const std::vector<StateVector<T>*>& states,
                           const ExecutionPlan& plan,
                           const BatchHooks<T>& hooks,
                           const ExecutionContext& ctx) {
  EngineStats stats;
  if (states.empty()) return stats;
  const unsigned n = plan.num_qubits;
  for (const StateVector<T>* s : states) {
    require(s != nullptr, "run_plan_batch: null state in batch");
    require(s->num_qubits() == n,
            "run_plan_batch: state/plan width mismatch");
  }
  const std::size_t batch = states.size();
  const std::uint64_t state_bytes = 2 * pow2(n) * std::uint64_t{2 * sizeof(T)};

  obs::Tracer& tracer = ctx.tracer();
  const bool tracing = tracer.enabled();

  for (const PlanPhase& phase : plan.phases) {
    switch (phase.kind) {
      case PhaseKind::LocalSweep: {
        // The batch payoff: one preparation (coefficient casts, kernel
        // resolution, block-locality checks) serves every trajectory.
        const std::vector<PreparedGate<T>> prepared =
            prepare_sweep<T>(phase.gates.data(), phase.gates.size(),
                             plan.block_qubits, ctx.metrics());
        const std::uint64_t start_ns = tracing ? tracer.now_ns() : 0;
        for (StateVector<T>* s : states)
          run_sweep_prepared(*s, prepared.data(), prepared.size(),
                             plan.block_qubits);
        observe_sweep(ctx.metrics(), phase.gates.size() * batch,
                      state_bytes * batch);
        if (tracing)
          tracer.record_span("sweep", obs::SpanCategory::Kernel, nullptr, 0,
                             pow2(plan.block_qubits), state_bytes * batch,
                             start_ns);
        stats.sweeps += batch;
        stats.traversals += batch;
        stats.blocked_gates += phase.gates.size() * batch;
        stats.bytes_streamed += state_bytes * batch;
        break;
      }
      case PhaseKind::DenseGate: {
        for (const auto& g : phase.gates) {
          const std::uint64_t gate_bytes = approx_streamed_bytes<T>(g, n);
          const std::uint64_t start_ns = tracing ? tracer.now_ns() : 0;
          // One preparation serves the batch; a default PreparedGate is
          // the no-op class.
          const PreparedGate<T> pg = classify_gate(g) == KernelClass::Nop
                                         ? PreparedGate<T>{}
                                         : prepare_gate<T>(g);
          for (std::size_t i = 0; i < batch; ++i) {
            apply_prepared(states[i]->data(), n, pg, states[i]->pool());
            if (hooks.after_gate) hooks.after_gate(i, *states[i], g);
          }
          if (tracing)
            tracer.record_span(g.name(), obs::SpanCategory::Kernel,
                               g.qubits.data(), g.qubits.size(),
                               pair_stride(g), gate_bytes * batch, start_ns);
          stats.bytes_streamed += gate_bytes * batch;
          if (g.kind != GateKind::I && g.kind != GateKind::BARRIER) {
            stats.passthrough_gates += batch;
            stats.traversals += batch;
          }
        }
        break;
      }
      case PhaseKind::Exchange: {
        if (!phase.moves_data) break;  // cost-only window marker
        for (const auto& h : phase.hops) {
          const Gate swap_gate = Gate::swap(h.local_slot, h.node_slot);
          const std::uint64_t swap_bytes =
              approx_streamed_bytes<T>(swap_gate, n);
          const std::uint64_t start_ns = tracing ? tracer.now_ns() : 0;
          const PreparedGate<T> pg = prepare_gate<T>(swap_gate);
          for (StateVector<T>* s : states)
            apply_prepared(s->data(), n, pg, s->pool());
          if (tracing)
            tracer.record_span("exchange", obs::SpanCategory::Collective,
                               swap_gate.qubits.data(), 2,
                               pair_stride(swap_gate), swap_bytes * batch,
                               start_ns);
          stats.exchanges += batch;
          stats.bytes_streamed += swap_bytes * batch;
        }
        break;
      }
      case PhaseKind::MeasureFlush: {
        require(static_cast<bool>(hooks.measure),
                "run_plan_batch: MEASURE/RESET need a measure hook");
        for (const auto& g : phase.gates) {
          const std::uint64_t gate_bytes = approx_streamed_bytes<T>(g, n);
          const std::uint64_t start_ns = tracing ? tracer.now_ns() : 0;
          for (std::size_t i = 0; i < batch; ++i)
            hooks.measure(i, *states[i], g);
          if (tracing)
            tracer.record_span(g.name(), obs::SpanCategory::Measure,
                               g.qubits.data(), g.qubits.size(),
                               pair_stride(g), gate_bytes * batch, start_ns);
          stats.measure_ops += batch;
          stats.traversals += batch;
          stats.bytes_streamed += gate_bytes * batch;
        }
        break;
      }
    }
  }

  // Each trajectory counts as one plan execution, matching what a per-shot
  // loop over run_plan would have published (stats.exchanges is already the
  // batch total, so it is added once, not once per trajectory).
  observe_plan_execution(ctx.metrics(), stats, plan.phases.size(),
                         /*executions=*/batch);
  return stats;
}

template void run_sweep<float>(StateVector<float>&, const Gate*, std::size_t,
                               unsigned, const ExecutionContext&);
template void run_sweep<double>(StateVector<double>&, const Gate*, std::size_t,
                                unsigned, const ExecutionContext&);
template EngineStats run_plan<float>(StateVector<float>&, const ExecutionPlan&,
                                     const PlanHooks<float>&,
                                     const ExecutionContext&);
template EngineStats run_plan<double>(StateVector<double>&,
                                      const ExecutionPlan&,
                                      const PlanHooks<double>&,
                                      const ExecutionContext&);
template EngineStats run_plan_batch<float>(
    const std::vector<StateVector<float>*>&, const ExecutionPlan&,
    const BatchHooks<float>&, const ExecutionContext&);
template EngineStats run_plan_batch<double>(
    const std::vector<StateVector<double>*>&, const ExecutionPlan&,
    const BatchHooks<double>&, const ExecutionContext&);

}  // namespace svsim::sv
