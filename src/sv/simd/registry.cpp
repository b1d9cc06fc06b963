#include <atomic>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "machine/cpu_features.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sv/simd/backend_tables.hpp"
#include "sv/simd/simd.hpp"

namespace svsim::sv::simd {

// ContextConfig carries the backend as the raw Isa value (obs sits below
// sv and cannot see this enum); pin the encoding it relies on: enumerators
// start at 0, so the -1 "use the active backend" sentinel never collides.
static_assert(static_cast<int>(Isa::Scalar) == 0);
static_assert(ContextConfig{}.simd_isa == -1);

namespace {

struct Tables {
  std::array<KernelFn<float>, kNumKernelClasses> f32;
  std::array<KernelFn<double>, kNumKernelClasses> f64;
};

struct Entry {
  Isa isa = Isa::Scalar;
  unsigned vector_bits = 0;
  bool compiled = false;
  bool available = false;
  std::size_t overridden_classes = 0;
  Tables tables;
};

const detail::KernelOverrides& overrides_for(Isa isa) {
  static const detail::KernelOverrides none{};
  switch (isa) {
    case Isa::Avx2: return detail::avx2_overrides();
    case Isa::Neon: return detail::neon_overrides();
    case Isa::Sve: return detail::sve_overrides();
    case Isa::Scalar: break;
  }
  return none;
}

bool cpu_supports(Isa isa) {
  const machine::CpuFeatures& f = machine::cpu_features();
  switch (isa) {
    case Isa::Scalar: return true;
    case Isa::Avx2: return f.avx2 && f.fma;
    case Isa::Neon: return f.neon;
    case Isa::Sve: return f.sve;
  }
  return false;
}

Entry make_entry(Isa isa) {
  Entry e;
  e.isa = isa;
  e.tables.f32 = kernel_table<float>();
  e.tables.f64 = kernel_table<double>();
  if (isa == Isa::Scalar) {
    e.compiled = true;
    e.available = true;
    return e;
  }
  const detail::KernelOverrides& ov = overrides_for(isa);
  e.compiled = ov.compiled;
  e.available = ov.compiled && cpu_supports(isa);
  e.vector_bits = ov.compiled ? ov.vector_bits : 0;
  for (std::size_t i = 0; i < kNumKernelClasses; ++i) {
    if (ov.f32[i] == nullptr && ov.f64[i] == nullptr) continue;
    ++e.overridden_classes;
    if (ov.f32[i] != nullptr) e.tables.f32[i] = ov.f32[i];
    if (ov.f64[i] != nullptr) e.tables.f64[i] = ov.f64[i];
  }
  return e;
}

std::array<Entry, kNumIsas>& entries() {
  static std::array<Entry, kNumIsas> all = [] {
    std::array<Entry, kNumIsas> a{};
    for (std::size_t i = 0; i < kNumIsas; ++i)
      a[i] = make_entry(static_cast<Isa>(i));
    return a;
  }();
  return all;
}

std::mutex g_select_mutex;
std::atomic<const Entry*> g_active{nullptr};

void activate(const Entry& e) {
  g_active.store(&e, std::memory_order_release);
  publish_metrics();
}

const Entry& active_entry() {
  const Entry* e = g_active.load(std::memory_order_acquire);
  if (e == nullptr) {
    select_default_backend();
    e = g_active.load(std::memory_order_acquire);
  }
  return *e;
}

bool parse_isa(std::string_view name, Isa& out) {
  for (std::size_t i = 0; i < kNumIsas; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (name == isa_name(isa)) {
      out = isa;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Neon: return "neon";
    case Isa::Sve: return "sve";
  }
  return "unknown";
}

std::vector<BackendInfo> backends() {
  std::vector<BackendInfo> out;
  out.reserve(kNumIsas);
  for (const Entry& e : entries()) {
    BackendInfo b;
    b.isa = e.isa;
    b.name = isa_name(e.isa);
    b.vector_bits = e.vector_bits;
    b.compiled = e.compiled;
    b.available = e.available;
    b.overridden_classes = e.overridden_classes;
    out.push_back(b);
  }
  return out;
}

Isa detect_isa() {
  const std::array<Entry, kNumIsas>& all = entries();
  for (const Isa isa : {Isa::Sve, Isa::Avx2, Isa::Neon})
    if (all[static_cast<std::size_t>(isa)].available) return isa;
  return Isa::Scalar;
}

BackendInfo active_backend() {
  const Entry& e = active_entry();
  BackendInfo b;
  b.isa = e.isa;
  b.name = isa_name(e.isa);
  b.vector_bits = e.vector_bits;
  b.compiled = e.compiled;
  b.available = e.available;
  b.overridden_classes = e.overridden_classes;
  return b;
}

bool select_backend(Isa isa) {
  std::lock_guard<std::mutex> lock(g_select_mutex);
  const Entry& e = entries()[static_cast<std::size_t>(isa)];
  if (!e.available) return false;
  activate(e);
  return true;
}

bool select_backend(std::string_view name) {
  Isa isa = Isa::Scalar;
  if (!parse_isa(name, isa)) return false;
  return select_backend(isa);
}

void select_default_backend() {
  const char* env = std::getenv("SVSIM_SIMD");
  if (env != nullptr && *env != '\0') {
    Isa requested = Isa::Scalar;
    if (!parse_isa(env, requested)) {
      std::fprintf(stderr,
                   "svsim: SVSIM_SIMD=%s is not a known backend; "
                   "using detected ISA\n",
                   env);
    } else if (!select_backend(requested)) {
      std::fprintf(stderr,
                   "svsim: SVSIM_SIMD=%s is not available on this host; "
                   "using detected ISA\n",
                   env);
    } else {
      return;
    }
  }
  select_backend(detect_isa());
}

unsigned effective_vector_bits(unsigned element_bytes) {
  const Entry& e = active_entry();
  if (e.vector_bits == 0) return 16u * element_bytes;  // one complex lane
  return e.vector_bits;
}

void publish_metrics() { publish_metrics(obs::MetricsRegistry::global()); }

void publish_metrics(obs::MetricsRegistry& registry) {
  const Entry& e = active_entry();
  registry.gauge("sv.simd.backend")
      .set(static_cast<double>(static_cast<int>(e.isa)));
  registry.gauge("sv.simd.vector_bits").set(static_cast<double>(e.vector_bits));
}

void count_dispatch(KernelClass cls) {
  count_dispatch(cls, obs::MetricsRegistry::global());
}

void count_dispatch(KernelClass cls, obs::MetricsRegistry& registry) {
  // Metric NAMES are registry-independent, so they are built once; the
  // Counter handles are looked up per call against the caller's registry
  // (caching them in a static would pin the first registry — the
  // stale-handle bug ExecutionContext exists to eliminate).
  static const std::array<std::string, kNumKernelClasses> names = [] {
    std::array<std::string, kNumKernelClasses> n{};
    for (std::size_t i = 0; i < kNumKernelClasses; ++i)
      n[i] = std::string("sv.simd.dispatch.") +
             kernel_class_name(static_cast<KernelClass>(i));
    return n;
  }();
  registry.counter(names[static_cast<std::size_t>(cls)]).increment();
}

}  // namespace svsim::sv::simd

namespace svsim::sv {

// The dispatch points kernels.hpp routes apply_range / apply_prepared
// through. One acquire load per (gate, range) application; the unnamed-
// namespace active_entry() is reachable here because this is its TU.

template <>
const std::array<KernelFn<float>, kNumKernelClasses>&
active_kernel_table<float>() {
  return simd::active_entry().tables.f32;
}

template <>
const std::array<KernelFn<double>, kNumKernelClasses>&
active_kernel_table<double>() {
  return simd::active_entry().tables.f64;
}

}  // namespace svsim::sv
