// Execution engine: runs an ExecutionPlan against a StateVector.
//
// The engine is a thin interpreter over the plan IR (sv/plan.hpp):
//
//  * LocalSweep phases are applied block-by-block: gates are prepared once
//    (coefficients pre-cast, kernels resolved through the dispatch table in
//    kernels.hpp), then each worker takes a contiguous range of aligned
//    2^block_qubits blocks — the same static partition the state's
//    first-touch initialization used, so on NUMA machines every worker
//    streams pages it owns — and runs the whole sweep over one block while
//    it is cache-resident. k gates cost ~1 traversal instead of k.
//  * DenseGate phases apply each gate to the whole state: apply_gate
//    prepares it and runs the same table entry over the full counter range,
//    split across the pool; every gate records its tracer span and counts
//    toward the stats (so traces see blocked and unblocked runs alike).
//  * Exchange phases with moves_data perform the slot swaps on the full
//    state — exactly the data movement the pairwise rank exchange performs;
//    cost-only exchanges are skipped.
//  * MeasureFlush phases dispatch to the `measure` hook (the Simulator owns
//    the RNG and classical bits); executing them without a hook throws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "obs/context.hpp"
#include "qc/gate.hpp"
#include "sv/plan.hpp"
#include "sv/state_vector.hpp"

namespace svsim::sv {

/// What an execution of a plan (or sweep) actually did.
struct EngineStats {
  std::size_t sweeps = 0;             ///< blocked steps executed
  std::size_t blocked_gates = 0;      ///< gates applied on the blocked path
  std::size_t passthrough_gates = 0;  ///< gates applied to the whole state
  std::size_t traversals = 0;         ///< state traversals performed
  std::size_t exchanges = 0;          ///< slot swaps applied for Exchange phases
  std::size_t measure_ops = 0;        ///< MEASURE/RESET dispatched to the hook
  std::uint64_t bytes_streamed = 0;   ///< estimated bytes moved (span labels)

  double gates_per_traversal() const noexcept {
    return traversals == 0 ? 0.0
                           : static_cast<double>(blocked_gates +
                                                 passthrough_gates) /
                                 static_cast<double>(traversals);
  }
};

/// Executor callbacks a front-end may supply. The engine itself is purely
/// unitary; anything stochastic (RNG, classical bits, noise channels) lives
/// behind these hooks so one executor serves ideal, noisy, and distributed
/// runs.
template <typename T>
struct PlanHooks {
  /// Handles one MEASURE/RESET gate. Required when the plan has
  /// MeasureFlush phases; run_plan throws otherwise.
  std::function<void(StateVector<T>&, const qc::Gate&)> measure;
  /// Called after each DenseGate application (noise channels). LocalSweep
  /// phases are only compiled when this is absent.
  std::function<void(StateVector<T>&, const qc::Gate&)> after_gate;
};

/// Batch-execution callbacks: the same contract as PlanHooks with the
/// trajectory index prepended, so each state in the batch draws from its
/// own RNG stream and records its own classical bits.
template <typename T>
struct BatchHooks {
  std::function<void(std::size_t traj, StateVector<T>&, const qc::Gate&)>
      measure;
  std::function<void(std::size_t traj, StateVector<T>&, const qc::Gate&)>
      after_gate;
};

/// Records a copy of every ExecutionPlan run_plan executes while the scope
/// is alive (in execution order). The plan-phase profiler (obs/profile.hpp)
/// records measured samples but cannot retain plans — obs sits below sv —
/// so callers that need the measured<->modeled join (CLI `run --profile`)
/// open this scope alongside the profiler and pair runs()[i] with plans()[i].
/// One scope at a time; opening a second throws.
class PlanCaptureScope {
 public:
  PlanCaptureScope();
  ~PlanCaptureScope();

  PlanCaptureScope(const PlanCaptureScope&) = delete;
  PlanCaptureScope& operator=(const PlanCaptureScope&) = delete;

  /// The open scope, or nullptr.
  static PlanCaptureScope* current() noexcept;
  /// Called by run_plan for every executed plan.
  void add(const ExecutionPlan& plan);

  std::vector<ExecutionPlan> plans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<ExecutionPlan> plans_;
};

/// Applies `count` gates — all block-local for `block_qubits` — to the state
/// in one blocked traversal. Records one "sweep" tracer span when tracing.
/// Spans and counters resolve through `ctx`; the default context is the
/// process-wide singletons, so existing call sites are unchanged.
template <typename T>
void run_sweep(StateVector<T>& state, const qc::Gate* gates, std::size_t count,
               unsigned block_qubits,
               const ExecutionContext& ctx = ExecutionContext::global());

/// Executes a whole plan. Every phase kind records its tracer spans and
/// metric counters (resolved through `ctx`); MeasureFlush needs
/// hooks.measure.
template <typename T>
EngineStats run_plan(StateVector<T>& state, const ExecutionPlan& plan,
                     const PlanHooks<T>& hooks = {},
                     const ExecutionContext& ctx = ExecutionContext::global());

/// Executes one plan over a batch of same-width states — the shot-batching
/// hook Simulator::run_shots amortizes trajectories with. The plan
/// is walked ONCE for the whole batch: each LocalSweep's gates are prepared
/// (coefficients pre-cast, kernels resolved) a single time and applied to
/// every state, and each phase records a single tracer span labeled with
/// the batch's combined bytes, so per-trajectory bookkeeping cost drops
/// with the batch size. Stochastic work comes in through BatchHooks with
/// the batch-local trajectory index. Stats aggregate over the batch.
///
/// Unlike run_plan, the batch path does not emit plan-phase profiler
/// samples or PlanCaptureScope entries (a sample must describe one state's
/// traversal; profile single runs instead).
template <typename T>
EngineStats run_plan_batch(const std::vector<StateVector<T>*>& states,
                           const ExecutionPlan& plan,
                           const BatchHooks<T>& hooks = {},
                           const ExecutionContext& ctx =
                               ExecutionContext::global());

extern template void run_sweep<float>(StateVector<float>&, const qc::Gate*,
                                      std::size_t, unsigned,
                                      const ExecutionContext&);
extern template void run_sweep<double>(StateVector<double>&, const qc::Gate*,
                                       std::size_t, unsigned,
                                       const ExecutionContext&);
extern template EngineStats run_plan<float>(StateVector<float>&,
                                            const ExecutionPlan&,
                                            const PlanHooks<float>&,
                                            const ExecutionContext&);
extern template EngineStats run_plan<double>(StateVector<double>&,
                                             const ExecutionPlan&,
                                             const PlanHooks<double>&,
                                             const ExecutionContext&);
extern template EngineStats run_plan_batch<float>(
    const std::vector<StateVector<float>*>&, const ExecutionPlan&,
    const BatchHooks<float>&, const ExecutionContext&);
extern template EngineStats run_plan_batch<double>(
    const std::vector<StateVector<double>*>&, const ExecutionPlan&,
    const BatchHooks<double>&, const ExecutionContext&);

}  // namespace svsim::sv
