#include "sv/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sv/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/plan.hpp"

namespace svsim::sv {

using qc::Gate;
using qc::GateKind;

template <typename T>
void apply_gate(StateVector<T>& state, const Gate& g) {
  const unsigned n = state.num_qubits();
  for (unsigned q : g.qubits)
    require(q < n, "apply_gate: qubit out of range");
  const KernelClass cls = classify_gate(g);
  if (cls == KernelClass::Nop) return;
  if (cls == KernelClass::Unsupported)
    throw Error(
        "apply_gate: MEASURE/RESET need a Simulator (they are stochastic)");
  apply_prepared(state.data(), n, prepare_gate<T>(g), state.pool());
}

template <typename T>
Simulator<T>::Simulator(SimulatorOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  SVSIM_ASSERT(options_.pool != nullptr);
}

template <typename T>
const ExecutionContext& Simulator<T>::ctx() const noexcept {
  return options_.context != nullptr ? *options_.context
                                     : ExecutionContext::global();
}

template <typename T>
ThreadPool& Simulator<T>::exec_pool() const noexcept {
  return options_.context != nullptr ? options_.context->pool()
                                     : *options_.pool;
}

template <typename T>
StateVector<T> Simulator<T>::run(const qc::Circuit& circuit) {
  StateVector<T> state(circuit.num_qubits(), &exec_pool());
  run_in_place(state, circuit);
  return state;
}

namespace {

/// Blocked sweeps apply many gates per state traversal, but noise channels
/// sample after every gate, so noisy execution compiles without blocking.
PlanOptions under_noise(PlanOptions po, const NoiseModel& noise) {
  po.blocking = po.blocking && noise.channels().empty();
  return po;
}

}  // namespace

template <typename T>
PlanOptions Simulator<T>::plan_options() const {
  PlanOptions po;
  po.fusion = options_.fusion;
  po.fusion_width = options_.fusion_width;
  po.blocking = options_.blocking;
  po.block_qubits = options_.block_qubits;
  po.amp_bytes = 2 * sizeof(T);
  po.machine = options_.machine;
  po.metrics = &ctx().metrics();
  return under_noise(po, options_.noise);
}

template <typename T>
void Simulator<T>::run_in_place(StateVector<T>& state,
                                const qc::Circuit& circuit) {
  require(state.num_qubits() == circuit.num_qubits(),
          "run_in_place: state/circuit width mismatch");
  run_plan(state, compile_plan(circuit, plan_options()));
}

template <typename T>
void Simulator<T>::run_plan(StateVector<T>& state, const ExecutionPlan& plan) {
  require(state.num_qubits() == plan.num_qubits,
          "run_plan: state/plan width mismatch");
  classical_bits_.assign(plan.num_clbits, false);

  // The engine is purely unitary; the stochastic ops and trajectory noise
  // come in through the hooks so measurement order (and thus RNG
  // consumption) is identical across dense, blocked, and distributed plans.
  PlanHooks<T> hooks;
  hooks.measure = [this](StateVector<T>& s, const Gate& g) {
    if (g.kind == GateKind::MEASURE) {
      // Readout error flips only the recorded bit, not the collapse.
      classical_bits_[g.cbit] =
          options_.noise.flip_readout(s.measure(g.qubits[0], rng_), rng_);
    } else {
      s.reset_qubit(g.qubits[0], rng_);
    }
  };
  if (!options_.noise.empty()) {
    hooks.after_gate = [this](StateVector<T>& s, const Gate& g) {
      options_.noise.apply_after(s, g, rng_);
    };
  }

  const EngineStats stats = svsim::sv::run_plan(state, plan, hooks, ctx());

  // One registry flush per run, not per gate: counters stay observable even
  // on hot trajectory loops without per-gate atomics. Handles are resolved
  // from the context's registry on every run — never cached in statics,
  // which would pin the first registry across contexts.
  obs::MetricsRegistry& registry = ctx().metrics();
  registry.counter("sv.runs").increment();
  registry.counter("sv.gates_applied").add(plan.total_gates());
  registry.counter("sv.bytes_streamed").add(stats.bytes_streamed);
  registry.counter("sv.measure_ops").add(stats.measure_ops);
}

namespace {

/// O(1) derived seed for global trajectory t. The Xoshiro256 constructor
/// scrambles its argument through splitmix64 per state word, so a
/// golden-ratio stride is enough to decorrelate streams — unlike
/// Xoshiro256::split(), whose t long-jumps would make seeding a batch of B
/// trajectories O(B^2).
std::uint64_t trajectory_seed(std::uint64_t seed, std::uint64_t traj) {
  return seed + (traj + 1) * 0x9e3779b97f4a7c15ull;
}

}  // namespace

template <typename T>
std::vector<std::vector<bool>> Simulator<T>::run_plan_batch(
    const std::vector<StateVector<T>*>& states, const ExecutionPlan& plan,
    std::uint64_t first_trajectory) {
  if (states.empty()) return {};
  for (const StateVector<T>* s : states)
    require(s != nullptr && s->num_qubits() == plan.num_qubits,
            "run_plan_batch: state/plan width mismatch");

  std::vector<std::vector<bool>> bits(
      states.size(), std::vector<bool>(plan.num_clbits, false));
  // One independent stream per trajectory, keyed by the global index: the
  // batch split is an execution detail, not part of the random experiment.
  std::vector<Xoshiro256> rngs;
  rngs.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i)
    rngs.emplace_back(trajectory_seed(options_.seed, first_trajectory + i));

  BatchHooks<T> hooks;
  hooks.measure = [this, &bits, &rngs](std::size_t traj, StateVector<T>& s,
                                       const Gate& g) {
    if (g.kind == GateKind::MEASURE) {
      bits[traj][g.cbit] = options_.noise.flip_readout(
          s.measure(g.qubits[0], rngs[traj]), rngs[traj]);
    } else {
      s.reset_qubit(g.qubits[0], rngs[traj]);
    }
  };
  if (!options_.noise.empty()) {
    hooks.after_gate = [this, &rngs](std::size_t traj, StateVector<T>& s,
                                     const Gate& g) {
      options_.noise.apply_after(s, g, rngs[traj]);
    };
  }

  const EngineStats stats =
      svsim::sv::run_plan_batch(states, plan, hooks, ctx());

  obs::MetricsRegistry& registry = ctx().metrics();
  registry.counter("sv.runs").add(states.size());
  registry.counter("sv.gates_applied").add(plan.total_gates() * states.size());
  registry.counter("sv.bytes_streamed").add(stats.bytes_streamed);
  registry.counter("sv.measure_ops").add(stats.measure_ops);

  classical_bits_ = bits.back();
  return bits;
}

ShotSplit split_shots(const qc::Circuit& circuit, const NoiseModel& noise,
                      const PlanOptions& options) {
  const unsigned n = circuit.num_qubits();
  bool has_measure = false;
  bool sampled = noise.channels().empty();
  for (const Gate& g : circuit.gates()) {
    if (g.kind == GateKind::MEASURE) {
      has_measure = true;
    } else if (g.kind == GateKind::RESET ||
               (has_measure && g.kind != GateKind::BARRIER)) {
      sampled = false;
    }
  }

  ShotSplit split;
  split.mode = sampled ? ShotMode::Sampled : ShotMode::Trajectory;
  split.options = under_noise(options, noise);
  split.label_width = has_measure ? circuit.num_clbits() : n;
  if (!sampled && has_measure) {
    split.circuit = circuit;
    return split;
  }
  // The unitary part when sampled; a measure-free circuit reads out every
  // qubit q into bit q.
  split.circuit = qc::Circuit(n, split.label_width);
  for (const Gate& g : circuit.gates()) {
    if (!sampled)
      split.circuit.append(g);
    else if (g.kind == GateKind::MEASURE)
      split.measures.emplace_back(g.qubits[0], g.cbit);
    else if (g.kind != GateKind::BARRIER)
      split.circuit.append(g);
  }
  if (!sampled)
    split.circuit.measure_all();
  else if (!has_measure)
    for (unsigned q = 0; q < n; ++q) split.measures.emplace_back(q, q);
  return split;
}

SortedCounts count_keys(std::vector<std::uint64_t> keys) {
  // One byte per pass, up to the highest set bit of any key; a pass whose
  // byte is equal in every key would move nothing and is skipped.
  std::uint64_t any = 0;
  for (std::uint64_t k : keys) any |= k;
  std::vector<std::uint64_t> sorted(keys.size());
  for (unsigned shift = 0; shift < 64 && (any >> shift) != 0; shift += 8) {
    std::size_t at[256] = {};
    for (std::uint64_t k : keys) ++at[(k >> shift) & 0xff];
    if (at[(keys[0] >> shift) & 0xff] == keys.size()) continue;
    std::size_t pos = 0;
    for (std::size_t& a : at) pos += std::exchange(a, pos);
    for (std::uint64_t k : keys) sorted[at[(k >> shift) & 0xff]++] = k;
    keys.swap(sorted);
  }
  SortedCounts out;
  out.reserve(std::min<std::uint64_t>(keys.size(), any + 1));
  for (std::size_t i = 0, j = 0; i < keys.size(); i = j) {
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    out.emplace_back(keys[i], j - i);
  }
  return out;
}

void read_out(std::vector<std::uint64_t>& samples,
              const std::vector<std::pair<unsigned, unsigned>>& measures,
              const NoiseModel& noise, Xoshiro256& rng) {
  const bool readout = noise.has_readout_error();
  std::uint64_t mask = 0;
  bool in_place = !readout;
  for (const auto& [q, c] : measures) {
    in_place = in_place && q == c;
    mask |= pow2(q);
  }
  if (in_place) {
    // Every measure reads qubit q into bit q (QV, QFT, measure-free).
    for (std::uint64_t& s : samples) s &= mask;
    return;
  }
  for (std::uint64_t& s : samples) {
    std::uint64_t key = 0;
    for (const auto& [q, c] : measures) {
      bool bit = test_bit(s, q);
      if (readout) bit = noise.flip_readout(bit, rng);
      if (bit) key = set_bit(key, c);
    }
    s = key;
  }
}

template <typename T>
ShotCounts Simulator<T>::run_shots(
    const ExecutionPlan& plan, ShotMode mode,
    const std::vector<std::pair<unsigned, unsigned>>& measures,
    std::size_t shots, std::uint64_t batch_bytes) {
  ShotCounts out;
  if (shots == 0) return out;
  const unsigned n = plan.num_qubits;
  const std::uint64_t state_bytes = pow2(n) * std::uint64_t{2 * sizeof(T)};
  if (mode == ShotMode::Sampled) {
    LentBuffer* lent = ctx().state_buffer();
    StateVector<T> state =
        lent != nullptr && state_bytes <= kLentStateBytes
            ? StateVector<T>(n, &exec_pool(), *lent)
            : StateVector<T>(n, &exec_pool());
    run_plan(state, plan);
    std::vector<std::uint64_t> keys = state.sample(shots, rng_);
    read_out(keys, measures, options_.noise, rng_);
    out.counts = count_keys(std::move(keys));
    out.batches = 1;
    out.batch_size = 1;
    return out;
  }

  // One batch of states is allocated and reset to |0...0> between batches,
  // so the working set stays at batch_bytes whatever the shot count.
  out.batch_size = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      batch_bytes / state_bytes, 1, shots));
  std::vector<StateVector<T>> states;
  states.reserve(out.batch_size);
  std::vector<StateVector<T>*> ptrs;
  for (std::size_t i = 0; i < out.batch_size; ++i) {
    states.emplace_back(n, &exec_pool());
    ptrs.push_back(&states.back());
  }
  std::vector<std::uint64_t> keys;
  for (std::size_t done = 0; done < shots; done += ptrs.size()) {
    if (done > 0) {
      ptrs.resize(std::min(out.batch_size, shots - done));
      for (StateVector<T>* s : ptrs) s->set_basis_state(0);
    }
    for (const auto& bits : run_plan_batch(ptrs, plan, done)) {
      std::uint64_t key = 0;
      for (std::size_t b = 0; b < bits.size(); ++b)
        if (bits[b]) key = set_bit(key, static_cast<unsigned>(b));
      keys.push_back(key);
    }
    ++out.batches;
  }
  out.counts = count_keys(std::move(keys));
  return out;
}

template <typename T>
std::map<std::uint64_t, std::size_t> Simulator<T>::sample_counts(
    const qc::Circuit& circuit, std::size_t shots) {
  const ShotSplit split = split_shots(circuit, options_.noise, plan_options());
  const SortedCounts counts =
      run_shots(compile_plan(split.circuit, split.options), split.mode,
                split.measures, shots)
          .counts;
  return {counts.begin(), counts.end()};
}

template <typename T>
double Simulator<T>::expectation(const qc::Circuit& circuit,
                                 const qc::PauliOperator& op) {
  StateVector<T> state = run(circuit);
  return state.expectation(op);
}

template void apply_gate<float>(StateVector<float>&, const qc::Gate&);
template void apply_gate<double>(StateVector<double>&, const qc::Gate&);
template class Simulator<float>;
template class Simulator<double>;

}  // namespace svsim::sv
