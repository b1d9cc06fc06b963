// Simulator<T>: the user-facing execution engine.
//
// Dispatches circuit gates onto the specialized kernels, optionally running
// the fusion pass first; handles measurement/reset/noise through hooks on
// the compiled ExecutionPlan. It is the one place that turns a circuit and
// a noise model into shots: split_shots picks sampled mode (prepare once,
// sample) or trajectory mode (one trajectory per shot) and run_shots runs a
// compiled plan's shots. sample_counts and svc::Service both use the two.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/threading.hpp"
#include "qc/circuit.hpp"
#include "qc/pauli.hpp"
#include "sv/fusion.hpp"
#include "sv/noise.hpp"
#include "sv/plan.hpp"
#include "sv/state_vector.hpp"

namespace svsim {
class ExecutionContext;
}

namespace svsim::machine {
struct MachineSpec;
}

namespace svsim::sv {

/// Applies one unitary gate to the state (no noise, no measurement):
/// classify, prepare, and one kernel-table call over the whole counter
/// range, split across the state's pool (sv::apply_prepared). BARRIER and I
/// are no-ops. Throws for MEASURE/RESET.
template <typename T>
void apply_gate(StateVector<T>& state, const qc::Gate& gate);

struct SimulatorOptions {
  /// Worker pool (borrowed). Defaults to the process-global pool.
  ThreadPool* pool = &ThreadPool::global();
  /// Run the fusion pass before execution.
  bool fusion = false;
  /// Maximum fused-gate width when fusion is on.
  unsigned fusion_width = 3;
  /// Cache-blocked sweep execution: consecutive gates whose operands all lie
  /// below the block boundary are applied per L2-sized block in one state
  /// traversal (see sv/sweep.hpp and docs/ARCHITECTURE.md). Amplitude-exact:
  /// the same kernel math as the unblocked path (agreement to FP rounding).
  /// Ignored (falls back to per-gate execution) when the noise model has
  /// channels, since they sample after every gate.
  bool blocking = false;
  /// Block size in qubits for the blocked engine; 0 = auto from the cache
  /// budget (see sv::PlanOptions).
  unsigned block_qubits = 0;
  /// Machine whose cache topology sizes auto blocks (borrowed; optional).
  /// When unset the plan compiler falls back to the 512 KiB default.
  const machine::MachineSpec* machine = nullptr;
  /// Seed for measurement sampling and noise trajectories.
  std::uint64_t seed = 0x5eed;
  /// Noise model; empty = ideal simulation.
  NoiseModel noise;
  /// Execution context (borrowed): metrics registry, tracer, profiler hook,
  /// and worker pool the run resolves against. nullptr = the process-wide
  /// singletons (ExecutionContext::global()). When set, the context's pool
  /// takes precedence over `pool` for states this simulator creates.
  const ExecutionContext* context = nullptr;
};

/// Sampled: prepare the unitary part once and draw every shot from it.
/// Trajectory: one noise and measurement trajectory per shot.
enum class ShotMode { Sampled, Trajectory };

/// What split_shots decides for one circuit under one noise model.
struct ShotSplit {
  ShotMode mode = ShotMode::Sampled;
  /// The circuit to compile: the unitary part (measures and barriers
  /// stripped) when sampled, the full circuit otherwise. A circuit with no
  /// MEASURE reads out as if it measured qubit q into bit q for every q,
  /// whatever its classical register; trajectory mode appends those.
  qc::Circuit circuit{1};
  /// The compile options, with blocking cleared under noise channels
  /// (they sample after every gate; a sweep applies many per traversal).
  PlanOptions options;
  /// Sampled mode: (qubit, cbit) of every stripped measure, in order.
  std::vector<std::pair<unsigned, unsigned>> measures;
  /// Bits per counts key (== circuit.num_clbits()).
  unsigned label_width = 0;
};

/// Sampled when the model has no noise channels and the circuit has no
/// RESET and no MEASURE followed by another operation (barriers aside);
/// trajectory otherwise. Readout error alone keeps sampled mode.
ShotSplit split_shots(const qc::Circuit& circuit, const NoiseModel& noise,
                      const PlanOptions& options = {});

/// Default resident bytes of one trajectory batch's state vectors
/// (Simulator::run_shots); svc::ServiceOptions::batch_bytes defaults to it.
inline constexpr std::uint64_t kTrajectoryBatchBytes = 64ull << 10;

/// Largest sampled-mode state Simulator::run_shots builds in a context's
/// lent buffer (ExecutionContext::state_buffer); larger states allocate, so
/// a worker holds at most this much between jobs. At 4 MiB (n = 18 f64) an
/// allocation's page faults are already small against the state's gates.
inline constexpr std::uint64_t kLentStateBytes = 4ull << 20;

/// (key, occurrences) in ascending key order.
using SortedCounts = std::vector<std::pair<std::uint64_t, std::size_t>>;

/// Histograms `keys` in key order: an LSD radix sort over the bytes up to
/// the highest set bit of any key, then one pass over the runs.
/// O(keys · key bytes).
SortedCounts count_keys(std::vector<std::uint64_t> keys);

/// Turns sampled basis indices into counts keys in place: key bit c is set
/// when some measure (q, c) reads 1. With readout error each read draws a
/// flip from `rng`, per shot and then per measure in order.
void read_out(std::vector<std::uint64_t>& samples,
              const std::vector<std::pair<unsigned, unsigned>>& measures,
              const NoiseModel& noise, Xoshiro256& rng);

/// One job's shot histogram and how its trajectories were batched.
struct ShotCounts {
  SortedCounts counts;
  std::size_t batches = 0;     ///< 1 when sampled
  std::size_t batch_size = 0;  ///< states per full batch; 1 when sampled
};

template <typename T>
class Simulator {
 public:
  explicit Simulator(SimulatorOptions options = {});

  const SimulatorOptions& options() const noexcept { return options_; }
  Xoshiro256& rng() noexcept { return rng_; }

  /// Runs the circuit from |0...0> and returns the final state. MEASURE
  /// collapses the state and records the outcome (see classical_bits());
  /// RESET re-initializes the qubit.
  StateVector<T> run(const qc::Circuit& circuit);

  /// Same, operating on an existing state (which must match the circuit
  /// width). The state's own pool is used for kernels. Internally compiles
  /// the circuit into an ExecutionPlan (sv/plan.hpp) and executes it.
  void run_in_place(StateVector<T>& state, const qc::Circuit& circuit);

  /// Executes a pre-compiled plan (single-node or simulated-distributed) on
  /// an existing state of matching width. Measurement and noise run through
  /// this simulator's RNG and classical-bit buffer, exactly as run_in_place.
  void run_plan(StateVector<T>& state, const ExecutionPlan& plan);

  /// Executes a pre-compiled plan over a batch of same-width states — one
  /// noise trajectory per state, with the plan walked once for the whole
  /// batch (engine run_plan_batch). Trajectory i draws from its own RNG
  /// stream derived from the simulator seed and the GLOBAL trajectory index
  /// `first_trajectory + i`, so a 100-shot job produces identical results
  /// whether executed as one batch of 100 or four batches of 25. Returns
  /// the per-trajectory classical bits; classical_bits() afterwards holds
  /// the last trajectory's bits.
  std::vector<std::vector<bool>> run_plan_batch(
      const std::vector<StateVector<T>*>& states, const ExecutionPlan& plan,
      std::uint64_t first_trajectory = 0);

  /// Classical bits recorded by MEASURE gates in the most recent run.
  const std::vector<bool>& classical_bits() const noexcept {
    return classical_bits_;
  }

  /// Runs `shots` shots of a plan compiled from a ShotSplit circuit.
  /// Sampled: one run_plan, `shots` draws from the state, then each
  /// `measures` bit read through the readout error, in that RNG order; the
  /// state lives in the context's lent buffer when it has one (up to
  /// kLentStateBytes), else in a fresh allocation.
  /// Trajectory: batches of max(1, batch_bytes / state bytes) states,
  /// allocated once and reset between batches, through run_plan_batch;
  /// trajectory t draws from its own stream keyed by t, so the counts do
  /// not depend on batch_bytes.
  ShotCounts run_shots(
      const ExecutionPlan& plan, ShotMode mode,
      const std::vector<std::pair<unsigned, unsigned>>& measures,
      std::size_t shots, std::uint64_t batch_bytes = kTrajectoryBatchBytes);

  /// Executes `shots` shots and histograms the results: split_shots,
  /// compile once, run_shots. Keys: the classical register if the circuit
  /// measures, else the full basis-state index.
  std::map<std::uint64_t, std::size_t> sample_counts(
      const qc::Circuit& circuit, std::size_t shots);

  /// <ψ|O|ψ> on the final state of a unitary circuit (noise: single
  /// trajectory; average externally for channel expectation).
  double expectation(const qc::Circuit& circuit, const qc::PauliOperator& op);

 private:
  /// The context runs resolve against (options_.context or the global one).
  const ExecutionContext& ctx() const noexcept;
  PlanOptions plan_options() const;
  /// Pool for states this simulator creates: the context's when a context
  /// was supplied, else options_.pool.
  ThreadPool& exec_pool() const noexcept;

  SimulatorOptions options_;
  Xoshiro256 rng_;
  std::vector<bool> classical_bits_;
};

extern template void apply_gate<float>(StateVector<float>&, const qc::Gate&);
extern template void apply_gate<double>(StateVector<double>&, const qc::Gate&);
extern template class Simulator<float>;
extern template class Simulator<double>;

}  // namespace svsim::sv
