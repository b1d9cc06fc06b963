// PlanCache: compile-once, serve-many storage of ExecutionPlans.
//
// The serve loop's economics hinge on never recompiling a circuit a client
// already submitted: a cache entry holds the compiled plan (plus everything
// the executor needs to run it without re-inspecting the circuit — the shot
// mode, the trailing-measure map, and the perf::cost_plan admission
// price). Entries are keyed by three FNV-1a fingerprints — the shot split
// (compiled circuit, shot mode and measure map), MachineSpec description,
// and the effective compile options
// (including the *resolved* cache budget, so SVSIM_CACHE_BUDGET=probed
// changing block sizing changes the key) — and evicted LRU by the heap
// bytes each entry holds (counted in malloc chunks) against a byte budget.
//
// Hit/miss/eviction counts and resident bytes publish to the obs registry
// as svc.plan_cache.{hits,misses,evictions} counters and the
// svc.plan_cache.bytes gauge; per-instance totals back each session's
// summary record (docs/SERVICE.md#cache-keying-and-eviction).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perf/perf_simulator.hpp"
#include "sv/plan.hpp"

namespace svsim::qc {
class Circuit;
}
namespace svsim::sv {
struct ShotSplit;
}
namespace svsim::machine {
struct MachineSpec;
}
namespace svsim::obs {
class MetricsRegistry;
}

namespace svsim::svc {

/// Cache key: (what to run) x (what it runs on) x (how it was compiled).
struct PlanKey {
  std::uint64_t circuit_fp = 0;
  std::uint64_t machine_fp = 0;
  std::uint64_t options_fp = 0;

  bool operator==(const PlanKey&) const = default;
  /// Stable rendering "c<hex>.m<hex>.o<hex>" used in result records.
  std::string to_string() const;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept {
    // The fingerprints are already avalanched; fold them.
    return static_cast<std::size_t>(k.circuit_fp ^ (k.machine_fp * 31) ^
                                    (k.options_fp * 131));
  }
};

/// Structural fingerprint of a circuit: width, classical register, and
/// every gate's kind/operands/parameter bit patterns/payload entries.
/// Equal circuits fingerprint equal; parameter changes, operand swaps, and
/// payload edits all change it.
std::uint64_t fingerprint_circuit(const qc::Circuit& circuit);

/// Fingerprint of what a cache entry is compiled and read out from: the
/// split's circuit (whose register width is the label width), shot mode
/// and measure map. A noisy and a noiseless job over one circuit split
/// differently, so they never share an entry.
std::uint64_t fingerprint_shots(const sv::ShotSplit& split);

/// Fingerprint of the machine description that sizes blocks and prices
/// admission; nullptr (no machine) has its own stable value.
std::uint64_t fingerprint_machine(const machine::MachineSpec* machine);

/// Fingerprint of the effective compile options: fusion/blocking knobs, the
/// *resolved* cache budget (sv::plan_cache_budget), rank count, scheduler,
/// and amplitude precision.
std::uint64_t fingerprint_plan_options(const sv::PlanOptions& options,
                                       unsigned ranks,
                                       const std::string& scheduler,
                                       unsigned amp_bytes);

/// Heap bytes a compiled plan holds, counted in malloc chunks (8-byte
/// header, 16-byte granule, 32-byte minimum) over vector capacities: the
/// plan object in its make_shared block, phases, gates, operand and
/// parameter vectors, the shared matrix/diagonal payload blocks, hops, notes
/// and the slot map.
std::uint64_t plan_footprint_bytes(const sv::ExecutionPlan& plan);

/// One cached compilation: everything needed to execute a job without
/// touching the circuit again — the compiled sv::ShotSplit and its price.
struct CachedPlan {
  std::shared_ptr<const sv::ExecutionPlan> plan;
  perf::PlanCost cost;               ///< admission price (modeled)
  std::uint64_t footprint_bytes = 0;
  /// ShotSplit::mode: true = the plan is the unitary part, run once and
  /// sampled through `measures`; false = one trajectory per shot.
  bool sampled_mode = true;
  std::vector<std::pair<unsigned, unsigned>> measures;  ///< (qubit, cbit)
  /// ShotSplit::label_width: bits in each counts label.
  unsigned num_clbits = 0;
};

/// Heap bytes a cache entry holds around its plan, in the same chunk
/// terms: the CachedPlan block, the measure map, the admission cost's
/// per-phase table, and the LRU list and index nodes. Service sets CachedPlan::footprint_bytes to plan_footprint_bytes
/// plus this, so the byte budget meters what the cache really keeps.
std::uint64_t cache_entry_overhead_bytes(const CachedPlan& entry);

/// Thread-safe LRU plan cache with a byte budget. An entry larger than the
/// whole budget is rejected (never inserted) rather than evicting the
/// entire cache for one tenant.
class PlanCache {
 public:
  /// `metrics` is the registry the svc.plan_cache.* series publish to;
  /// nullptr resolves to the process registry on every call (never cached
  /// in a static handle, so a substituted registry is picked up).
  explicit PlanCache(std::uint64_t budget_bytes,
                     obs::MetricsRegistry* metrics = nullptr);

  /// Returns the entry (refreshing its recency) or nullptr. Counts a hit
  /// or a miss on the svc.plan_cache.* metrics either way.
  std::shared_ptr<const CachedPlan> get(const PlanKey& key);

  /// Inserts (or replaces) an entry, evicting least-recently-used entries
  /// until the footprint fits. Returns false when the entry alone exceeds
  /// the budget and was not stored.
  bool put(const PlanKey& key, std::shared_ptr<const CachedPlan> entry);

  void clear();

  std::uint64_t budget_bytes() const noexcept { return budget_bytes_; }
  std::uint64_t bytes() const;
  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  void evict_until_fits(std::uint64_t incoming_bytes);  // requires mutex_
  obs::MetricsRegistry& registry() const;

  const std::uint64_t budget_bytes_;
  obs::MetricsRegistry* const metrics_;
  mutable std::mutex mutex_;
  /// MRU at the front. The map points into the list.
  std::list<std::pair<PlanKey, std::shared_ptr<const CachedPlan>>> lru_;
  std::unordered_map<PlanKey, decltype(lru_)::iterator, PlanKeyHash> index_;
  std::uint64_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace svsim::svc
