#include "sv/plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <ostream>

#include "common/error.hpp"
#include "machine/cache_probe.hpp"
#include "machine/machine_spec.hpp"
#include "obs/metrics.hpp"
#include "sv/fusion.hpp"

namespace svsim::sv {

using qc::Gate;
using qc::GateKind;

const char* phase_kind_name(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::LocalSweep: return "local_sweep";
    case PhaseKind::DenseGate: return "dense_gate";
    case PhaseKind::Exchange: return "exchange";
    case PhaseKind::MeasureFlush: return "measure_flush";
  }
  return "?";
}

namespace {

bool free_gate(const Gate& g) {
  return g.kind == GateKind::I || g.kind == GateKind::BARRIER;
}

bool measure_gate(const Gate& g) {
  return g.kind == GateKind::MEASURE || g.kind == GateKind::RESET;
}

/// True if the blocked engine may apply `g` inside a 2^b-amplitude block:
/// a unitary operation whose operands all lie strictly below bit `b`.
/// I/BARRIER are excluded (free as DenseGate phases, they would only
/// inflate sweep bookkeeping); MEASURE/RESET need the simulator's RNG.
bool block_local(const Gate& g, unsigned b) {
  return g.is_unitary_op() && !free_gate(g) && g.max_qubit() < b;
}

}  // namespace

std::string ExecutionPlan::summary_id() const {
  return "q" + std::to_string(num_qubits) + "r" + std::to_string(num_ranks()) +
         "b" + std::to_string(block_qubits) + "p" +
         std::to_string(phases.size()) + "g" + std::to_string(total_gates());
}

std::size_t ExecutionPlan::num_windows() const noexcept {
  std::size_t windows = 0;
  bool open = false;
  for (const auto& phase : phases) {
    if (phase.kind == PhaseKind::Exchange) {
      open = false;
    } else if (!open) {
      ++windows;
      open = true;
    }
  }
  return windows;
}

std::size_t ExecutionPlan::traversals() const noexcept {
  std::size_t t = 0;
  for (const auto& phase : phases) {
    switch (phase.kind) {
      case PhaseKind::LocalSweep:
        ++t;
        break;
      case PhaseKind::DenseGate:
        for (const auto& g : phase.gates)
          if (!free_gate(g)) ++t;
        break;
      case PhaseKind::MeasureFlush:
        t += phase.gates.size();
        break;
      case PhaseKind::Exchange:
        break;
    }
  }
  return t;
}

double ExecutionPlan::gates_per_traversal() const noexcept {
  const std::size_t t = traversals();
  const std::size_t applied = sweep_gates + dense_gates + measure_gates;
  return t == 0 ? 0.0
                : static_cast<double>(applied) / static_cast<double>(t);
}

void ExecutionPlan::finalize() {
  sweep_gates = dense_gates = free_gates = measure_gates = 0;
  num_exchanges = 0;
  exchange_bytes_per_rank = 0.0;
  for (const auto& phase : phases) {
    switch (phase.kind) {
      case PhaseKind::LocalSweep:
        sweep_gates += phase.gates.size();
        break;
      case PhaseKind::DenseGate:
        for (const auto& g : phase.gates)
          free_gate(g) ? ++free_gates : ++dense_gates;
        break;
      case PhaseKind::MeasureFlush:
        measure_gates += phase.gates.size();
        break;
      case PhaseKind::Exchange:
        num_exchanges += phase.hops.size();
        exchange_bytes_per_rank += phase.exchange_bytes();
        break;
    }
  }
  if (final_slot_of.empty()) {
    final_slot_of.resize(num_qubits);
    for (unsigned q = 0; q < num_qubits; ++q) final_slot_of[q] = q;
  }
  // A compiled plan is read-only from here on (and may sit in the plan
  // cache for long): drop the growth slack the compilers left behind.
  phases.shrink_to_fit();
  final_slot_of.shrink_to_fit();
  for (auto& phase : phases) {
    phase.gates.shrink_to_fit();
    phase.hops.shrink_to_fit();
    for (auto& g : phase.gates) {
      g.qubits.shrink_to_fit();
      g.params.shrink_to_fit();
    }
  }
}

void ExecutionPlan::validate() const {
  require(num_qubits >= 1, "plan: empty register");
  require(node_qubits < num_qubits && local_qubits == num_qubits - node_qubits,
          "plan: node/local qubit split inconsistent");
  require(block_qubits <= local_qubits,
          "plan: block boundary crosses the rank boundary");
  require(final_slot_of.size() == num_qubits,
          "plan: final_slot_of width mismatch (finalize() not called?)");

  // Track the qubit->slot permutation through data-moving exchanges so the
  // measure-sees-identity and final-layout invariants can be checked.
  std::vector<unsigned> logical_at(num_qubits);
  for (unsigned s = 0; s < num_qubits; ++s) logical_at[s] = s;

  bool prev_exchange = false;
  for (const auto& phase : phases) {
    const bool is_exchange = phase.kind == PhaseKind::Exchange;
    require(!(is_exchange && prev_exchange),
            "plan: two adjacent Exchange phases (windows not coalesced)");
    prev_exchange = is_exchange;

    switch (phase.kind) {
      case PhaseKind::LocalSweep:
        require(!phase.gates.empty(), "plan: empty LocalSweep phase");
        require(block_qubits >= 1, "plan: LocalSweep without a block size");
        for (const auto& g : phase.gates) {
          require(g.is_unitary_op() && !free_gate(g),
                  "plan: non-sweepable gate in a LocalSweep phase");
          require(g.num_qubits() > 0 && g.max_qubit() < block_qubits,
                  "plan: LocalSweep operand at or above the block boundary");
        }
        break;
      case PhaseKind::DenseGate:
        require(phase.gates.size() == 1,
                "plan: DenseGate phase must hold exactly one gate");
        require(phase.gates[0].is_unitary_op(),
                "plan: MEASURE/RESET outside a MeasureFlush phase");
        require(phase.gates[0].qubits.empty() ||
                    phase.gates[0].max_qubit() < num_qubits,
                "plan: DenseGate operand out of range");
        break;
      case PhaseKind::MeasureFlush:
        require(!phase.gates.empty(), "plan: empty MeasureFlush phase");
        for (const auto& g : phase.gates) {
          require(measure_gate(g),
                  "plan: unitary gate inside a MeasureFlush phase");
          require(g.qubits.size() == 1 && g.qubits[0] < num_qubits,
                  "plan: MeasureFlush operand out of range");
        }
        for (unsigned s = 0; s < num_qubits; ++s)
          require(logical_at[s] == s,
                  "plan: MeasureFlush under a permuted qubit layout");
        break;
      case PhaseKind::Exchange:
        require(!phase.hops.empty(), "plan: Exchange phase without hops");
        for (const auto& h : phase.hops) {
          require(h.bytes >= 0.0, "plan: negative exchange bytes");
          if (!phase.moves_data) continue;
          require(h.local_slot < local_qubits &&
                      h.node_slot >= local_qubits && h.node_slot < num_qubits,
                  "plan: exchange hop slots do not straddle the rank "
                  "boundary");
          require(h.rank_bit ==
                      static_cast<int>(h.node_slot - local_qubits),
                  "plan: exchange hop rank bit inconsistent with its slot");
          std::swap(logical_at[h.local_slot], logical_at[h.node_slot]);
        }
        break;
    }
  }

  for (unsigned s = 0; s < num_qubits; ++s)
    require(final_slot_of[logical_at[s]] == s,
            "plan: final_slot_of does not match the executed permutation");
}

namespace {

/// SVSIM_CACHE_BUDGET selects where the auto-blocking budget comes from:
/// "declared" (default) trusts the MachineSpec LLC share, "probed" uses
/// the startup microprobe's measured knee when it found one.
bool cache_budget_prefers_probe() {
  const char* mode = std::getenv("SVSIM_CACHE_BUDGET");
  if (mode == nullptr || *mode == '\0' ||
      std::strcmp(mode, "declared") == 0)
    return false;
  if (std::strcmp(mode, "probed") == 0) return true;
  throw Error(std::string("SVSIM_CACHE_BUDGET: unknown mode \"") + mode +
              "\" (expected \"probed\" or \"declared\")");
}

}  // namespace

std::uint64_t plan_cache_budget(const PlanOptions& options) {
  if (options.cache_bytes != 0) return options.cache_bytes;
  if (cache_budget_prefers_probe()) {
    const machine::CacheProbeResult& probe = machine::probed_cache_budget();
    if (probe.valid && probe.effective_bytes != 0)
      return probe.effective_bytes;
    // Inconclusive probe: fall through to the declared description.
  }
  if (options.machine != nullptr) {
    const std::uint64_t budget = options.machine->cache_budget_per_core_bytes();
    if (budget != 0) return budget;
  }
  return kDefaultCacheBytes;
}

void append_window_phases(ExecutionPlan& plan, std::vector<Gate> gates,
                          const PlanOptions& options) {
  if (gates.empty()) return;
  auto push_dense = [&plan](Gate&& g) {
    PlanPhase phase;
    phase.kind = PhaseKind::DenseGate;
    phase.gates.push_back(std::move(g));
    plan.phases.push_back(std::move(phase));
  };
  const unsigned b = plan.block_qubits;
  if (b == 0) {
    for (auto& g : gates) push_dense(std::move(g));
    return;
  }
  require(options.max_sweep_gates >= 1,
          "append_window_phases: max_sweep_gates must be >= 1");

  // Sweep grouping: runs of consecutive block-local gates become LocalSweep
  // phases (split at max_sweep_gates, each split still one traversal);
  // every other gate is its own DenseGate phase. Gates are never reordered.
  std::size_t blocked_gates = 0;
  std::size_t passthrough_gates = 0;
  PlanPhase sweep;
  auto flush = [&] {
    if (sweep.gates.empty()) return;
    blocked_gates += sweep.gates.size();
    sweep.kind = PhaseKind::LocalSweep;
    plan.phases.push_back(std::move(sweep));
    sweep = PlanPhase{};
  };
  for (auto& g : gates) {
    if (block_local(g, b)) {
      if (sweep.gates.size() >= options.max_sweep_gates) flush();
      sweep.gates.push_back(std::move(g));
      continue;
    }
    flush();
    if (!free_gate(g)) ++passthrough_gates;
    push_dense(std::move(g));
  }
  flush();

  // Grouping telemetry: how much of the window the blocked path captured.
  auto& registry = options.metrics != nullptr ? *options.metrics
                                              : obs::MetricsRegistry::global();
  registry.counter("sweep.plans").increment();
  registry.counter("sweep.blocked_gates").add(blocked_gates);
  registry.counter("sweep.passthrough_gates").add(passthrough_gates);
}

// Handles resolve per call against the caller's registry — no function-
// local statics, which would pin the first registry forever.
void note_plan_compiled(const ExecutionPlan& plan,
                        obs::MetricsRegistry* metrics) {
  auto& registry =
      metrics != nullptr ? *metrics : obs::MetricsRegistry::global();
  registry.counter("plan.compiles").increment();
  registry.counter("plan.phases").add(plan.phases.size());
  registry.counter("plan.windows").add(plan.num_windows());
  registry.counter("plan.exchanges").add(plan.num_exchanges);
  registry.counter("plan.exchange_bytes")
      .add(static_cast<std::uint64_t>(plan.exchange_bytes_per_rank));
}

ExecutionPlan compile_plan(const qc::Circuit& circuit,
                           const PlanOptions& options) {
  const unsigned n = circuit.num_qubits();
  require(n >= 1, "compile_plan: circuit must have at least one qubit");

  qc::Circuit fused_storage(1);
  const qc::Circuit* source = &circuit;
  if (options.fusion) {
    FusionOptions fo;
    fo.max_width = options.fusion_width;
    fo.metrics = options.metrics;
    fused_storage = fuse(circuit, fo);
    source = &fused_storage;
  }

  ExecutionPlan plan;
  plan.num_qubits = n;
  plan.node_qubits = 0;
  plan.local_qubits = n;
  plan.num_clbits = circuit.num_clbits();
  if (options.blocking) {
    plan.block_qubits =
        options.block_qubits != 0
            ? std::min(options.block_qubits, n)
            : auto_block_qubits(n, plan_cache_budget(options),
                                options.amp_bytes, options.min_free_qubits);
  }

  std::vector<Gate> window;
  for (const auto& g : source->gates()) {
    if (!measure_gate(g)) {
      window.push_back(g);
      continue;
    }
    append_window_phases(plan, std::move(window), options);
    window.clear();
    // Coalesce consecutive MEASURE/RESET into one flush phase.
    if (plan.phases.empty() ||
        plan.phases.back().kind != PhaseKind::MeasureFlush) {
      PlanPhase flush;
      flush.kind = PhaseKind::MeasureFlush;
      plan.phases.push_back(std::move(flush));
    }
    plan.phases.back().gates.push_back(g);
  }
  append_window_phases(plan, std::move(window), options);

  plan.finalize();
  note_plan_compiled(plan, options.metrics);
  return plan;
}

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void write_gate_json(std::ostream& os, const Gate& g) {
  os << "{\"name\":\"" << g.name() << "\",\"qubits\":[";
  for (std::size_t i = 0; i < g.qubits.size(); ++i)
    os << (i ? "," : "") << g.qubits[i];
  os << "]";
  if (g.kind == GateKind::MEASURE) os << ",\"cbit\":" << g.cbit;
  os << "}";
}

}  // namespace

void write_plan_json(const ExecutionPlan& plan, std::ostream& os) {
  os << std::setprecision(17);
  os << "{\n";
  os << "  \"version\": 1,\n";
  os << "  \"num_qubits\": " << plan.num_qubits << ",\n";
  os << "  \"node_qubits\": " << plan.node_qubits << ",\n";
  os << "  \"local_qubits\": " << plan.local_qubits << ",\n";
  os << "  \"block_qubits\": " << plan.block_qubits << ",\n";
  os << "  \"num_clbits\": " << plan.num_clbits << ",\n";
  os << "  \"ranks\": " << plan.num_ranks() << ",\n";
  os << "  \"stats\": {\"sweep_gates\": " << plan.sweep_gates
     << ", \"dense_gates\": " << plan.dense_gates
     << ", \"free_gates\": " << plan.free_gates
     << ", \"measure_gates\": " << plan.measure_gates
     << ", \"num_exchanges\": " << plan.num_exchanges
     << ", \"exchange_bytes_per_rank\": " << plan.exchange_bytes_per_rank
     << ", \"traversals\": " << plan.traversals()
     << ", \"windows\": " << plan.num_windows()
     << ", \"gates_per_traversal\": " << plan.gates_per_traversal()
     << "},\n";
  os << "  \"final_slot_of\": [";
  for (std::size_t i = 0; i < plan.final_slot_of.size(); ++i)
    os << (i ? "," : "") << plan.final_slot_of[i];
  os << "],\n";
  os << "  \"phases\": [\n";
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    const PlanPhase& phase = plan.phases[p];
    os << "    {\"kind\": \"" << phase_kind_name(phase.kind) << "\"";
    if (!phase.note.empty()) {
      os << ", \"note\": ";
      write_json_string(os, phase.note);
    }
    if (phase.kind == PhaseKind::Exchange) {
      os << ", \"moves_data\": " << (phase.moves_data ? "true" : "false");
      os << ", \"bytes_per_rank\": " << phase.exchange_bytes();
      os << ", \"hops\": [";
      for (std::size_t i = 0; i < phase.hops.size(); ++i) {
        const ExchangeHop& h = phase.hops[i];
        os << (i ? "," : "") << "{\"local_slot\":" << h.local_slot
           << ",\"node_slot\":" << h.node_slot
           << ",\"rank_bit\":" << h.rank_bit << ",\"bytes\":" << h.bytes
           << "}";
      }
      os << "]";
    } else {
      os << ", \"gates\": [";
      for (std::size_t i = 0; i < phase.gates.size(); ++i) {
        if (i) os << ",";
        write_gate_json(os, phase.gates[i]);
      }
      os << "]";
    }
    os << "}" << (p + 1 < plan.phases.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace svsim::sv
