#include "svc/plan_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/error.hpp"
#include "machine/machine_spec.hpp"
#include "obs/metrics.hpp"
#include "qc/circuit.hpp"
#include "sv/simulator.hpp"

namespace svsim::svc {

namespace {

/// FNV-1a 64-bit accumulator. Fast, dependency-free, and good enough for a
/// cache key space of a few thousand circuits; collisions only cost a wrong
/// cache hit, which validate()'d width checks would surface immediately.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof(v)); }
  void u32(std::uint32_t v) noexcept { bytes(&v, sizeof(v)); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void hash_complex(Fnv1a& h, const qc::cplx& c) {
  h.f64(c.real());
  h.f64(c.imag());
}


}  // namespace

std::string PlanKey::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "c%016llx.m%016llx.o%016llx",
                static_cast<unsigned long long>(circuit_fp),
                static_cast<unsigned long long>(machine_fp),
                static_cast<unsigned long long>(options_fp));
  return buf;
}

std::uint64_t fingerprint_circuit(const qc::Circuit& circuit) {
  Fnv1a h;
  h.u32(circuit.num_qubits());
  h.u32(circuit.num_clbits());
  h.u64(circuit.size());
  for (const auto& g : circuit.gates()) {
    h.u32(static_cast<std::uint32_t>(g.kind));
    h.u64(g.qubits.size());
    for (unsigned q : g.qubits) h.u32(q);
    h.u64(g.params.size());
    for (double p : g.params) h.f64(p);
    h.u32(g.cbit);
    if (g.kind == qc::GateKind::DIAG) {
      const auto& diag = g.diagonal_entries();
      h.u64(diag.size());
      for (const auto& d : diag) hash_complex(h, d);
    } else if (g.kind == qc::GateKind::UNITARY ||
               g.kind == qc::GateKind::U2Q) {
      const auto& m = g.matrix_payload();
      h.u64(m.dim());
      for (unsigned r = 0; r < m.dim(); ++r)
        for (unsigned c = 0; c < m.dim(); ++c) hash_complex(h, m(r, c));
    }
  }
  return h.value();
}

std::uint64_t fingerprint_shots(const sv::ShotSplit& split) {
  // The label width is the split circuit's classical register width.
  Fnv1a h;
  h.u64(fingerprint_circuit(split.circuit));
  h.u32(static_cast<std::uint32_t>(split.mode));
  for (const auto& [q, c] : split.measures) {
    h.u32(q);
    h.u32(c);
  }
  return h.value();
}

std::uint64_t fingerprint_machine(const machine::MachineSpec* machine) {
  Fnv1a h;
  if (machine == nullptr) {
    h.str("<none>");
    return h.value();
  }
  const machine::MachineSpec& m = *machine;
  h.str(m.name);
  h.u32(m.numa_domains);
  h.u32(m.cores_per_domain);
  h.f64(m.clock_ghz);
  h.u32(m.simd_bits);
  h.u32(m.fma_pipes_per_core);
  h.f64(m.mem_bandwidth_gbps_per_domain);
  h.f64(m.mem_stream_efficiency);
  h.f64(m.core_mem_bandwidth_gbps);
  h.u64(m.caches.size());
  for (const auto& c : m.caches) {
    h.str(c.name);
    h.u64(c.size_bytes);
    h.u32(c.line_bytes);
    h.u32(c.shared_by_cores);
    h.f64(c.core_bandwidth_gbps);
    h.f64(c.domain_bandwidth_gbps);
  }
  return h.value();
}

std::uint64_t fingerprint_plan_options(const sv::PlanOptions& options,
                                       unsigned ranks,
                                       const std::string& scheduler,
                                       unsigned amp_bytes) {
  Fnv1a h;
  h.u32(options.fusion ? 1 : 0);
  h.u32(options.fusion_width);
  h.u32(options.blocking ? 1 : 0);
  h.u32(options.block_qubits);
  // Hash the budget auto sizing will actually use, not the raw knob: a
  // probed-vs-declared budget switch (SVSIM_CACHE_BUDGET) changes block
  // sizes and therefore must change the key.
  h.u64(options.blocking ? sv::plan_cache_budget(options) : 0);
  h.u32(options.amp_bytes);
  h.u32(options.max_sweep_gates);
  h.u32(options.min_free_qubits);
  h.u32(ranks);
  h.str(scheduler);
  h.u32(amp_bytes);
  return h.value();
}

namespace {

/// Heap bytes glibc malloc spends on an n-byte request: an 8-byte chunk
/// header, 16-byte granules and a 32-byte minimum chunk; nothing for an
/// empty request.
constexpr std::uint64_t heap_chunk(std::uint64_t n) {
  return n == 0 ? 0
                : std::max<std::uint64_t>(32, (n + 8 + 15) & ~std::uint64_t{15});
}

/// A make_shared block: the control block (vtable pointer and two counts)
/// and the object in one chunk.
constexpr std::uint64_t shared_chunk(std::uint64_t object_bytes) {
  return heap_chunk(16 + object_bytes);
}

template <typename V>
std::uint64_t vector_chunk(const V& v) {
  return heap_chunk(v.capacity() * sizeof(typename V::value_type));
}

/// Strings up to the 15-character small-string buffer stay inline.
std::uint64_t string_chunk(const std::string& s) {
  return s.capacity() > 15 ? heap_chunk(s.capacity() + 1) : 0;
}

std::uint64_t gate_payload_bytes(const qc::Gate& g) {
  if (g.kind == qc::GateKind::DIAG)
    return shared_chunk(sizeof(std::vector<qc::cplx>)) +
           vector_chunk(g.diagonal_entries());
  if (g.kind == qc::GateKind::UNITARY || g.kind == qc::GateKind::U2Q) {
    const std::uint64_t dim = g.matrix_payload().dim();
    return shared_chunk(sizeof(qc::Matrix)) +
           heap_chunk(dim * dim * sizeof(qc::cplx));
  }
  return 0;
}

}  // namespace

std::uint64_t plan_footprint_bytes(const sv::ExecutionPlan& plan) {
  std::uint64_t total = shared_chunk(sizeof(sv::ExecutionPlan));
  total += vector_chunk(plan.final_slot_of) + vector_chunk(plan.phases);
  for (const auto& phase : plan.phases) {
    total += string_chunk(phase.note) + vector_chunk(phase.hops) +
             vector_chunk(phase.gates);
    for (const auto& g : phase.gates)
      total += vector_chunk(g.qubits) + vector_chunk(g.params) +
               gate_payload_bytes(g);
  }
  return total;
}

std::uint64_t cache_entry_overhead_bytes(const CachedPlan& entry) {
  // The LRU list node holds (key, entry pointer) behind two links; the
  // index node holds (key, list iterator) behind one link, plus about one
  // bucket pointer per entry at the default load factor.
  using LruValue = std::pair<PlanKey, std::shared_ptr<const CachedPlan>>;
  const std::uint64_t lru_node = heap_chunk(2 * sizeof(void*) + sizeof(LruValue));
  const std::uint64_t index_node =
      heap_chunk(sizeof(void*) + sizeof(PlanKey) + sizeof(void*));
  return shared_chunk(sizeof(CachedPlan)) + vector_chunk(entry.measures) +
         vector_chunk(entry.cost.phases) +
         string_chunk(entry.cost.machine_name) + lru_node + index_node +
         sizeof(void*);
}

PlanCache::PlanCache(std::uint64_t budget_bytes, obs::MetricsRegistry* metrics)
    : budget_bytes_(budget_bytes), metrics_(metrics) {
  require(budget_bytes_ > 0, "PlanCache: budget must be positive");
}

// Handles resolve per call; a function-local static handle struct here used
// to pin the first registry forever (stale after a registry substitution —
// see tests/test_context.cpp).
obs::MetricsRegistry& PlanCache::registry() const {
  return metrics_ != nullptr ? *metrics_ : obs::MetricsRegistry::global();
}

std::shared_ptr<const CachedPlan> PlanCache::get(const PlanKey& key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    registry().counter("svc.plan_cache.misses").increment();
    return nullptr;
  }
  ++hits_;
  registry().counter("svc.plan_cache.hits").increment();
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

bool PlanCache::put(const PlanKey& key,
                    std::shared_ptr<const CachedPlan> entry) {
  SVSIM_ASSERT(entry != nullptr && entry->plan != nullptr);
  std::lock_guard lock(mutex_);
  const std::uint64_t incoming = entry->footprint_bytes;
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->second->footprint_bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (incoming > budget_bytes_) {
    registry().gauge("svc.plan_cache.bytes").set(static_cast<double>(bytes_));
    return false;  // one oversized tenant must not flush everyone else
  }
  evict_until_fits(incoming);
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  bytes_ += incoming;
  registry().gauge("svc.plan_cache.bytes").set(static_cast<double>(bytes_));
  return true;
}

void PlanCache::evict_until_fits(std::uint64_t incoming_bytes) {
  while (!lru_.empty() && bytes_ + incoming_bytes > budget_bytes_) {
    const auto victim = std::prev(lru_.end());
    bytes_ -= victim->second->footprint_bytes;
    index_.erase(victim->first);
    lru_.erase(victim);
    ++evictions_;
    registry().counter("svc.plan_cache.evictions").increment();
  }
}

void PlanCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  registry().gauge("svc.plan_cache.bytes").set(0.0);
}

std::uint64_t PlanCache::bytes() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

std::uint64_t PlanCache::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  std::lock_guard lock(mutex_);
  return misses_;
}

std::uint64_t PlanCache::evictions() const {
  std::lock_guard lock(mutex_);
  return evictions_;
}

}  // namespace svsim::svc
