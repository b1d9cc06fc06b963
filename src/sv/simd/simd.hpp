#pragma once

// SIMD kernel backend registry with runtime CPU dispatch.
//
// Each backend is a full 16-entry KernelClass table per precision, built
// from the portable scalar reference (`sv::kernel_table`) with the
// hand-vectorized hot entries (Hadamard, Diag1, Matrix1, Matrix2; on AVX2
// also McPhase, DiagK and MatrixK) substituted where the backend provides
// them. Every gate application —
// `apply_range` from the blocked engine, `apply_prepared` from `apply_gate`,
// DenseGate and Exchange phases, the batch executor and the noise channels —
// dispatches through `sv::active_kernel_table<T>()` (declared in
// kernels.hpp, defined by this subsystem), so every path inherits the
// selected backend.
//
// Selection order: explicit select_backend() call (the CLI `--simd`
// option) > `SVSIM_SIMD` environment variable > runtime CPU detection
// (machine/cpu_features). An unavailable or unknown request falls back to
// detection with a warning on stderr; selection is sticky once made.
//
// Numerical contract: vectorized kernels may reorder and fuse (FMA) the
// complex arithmetic of the scalar reference. Amplitudes agree with the
// scalar table within a few ulps per gate application — the documented
// bounds (docs/ARCHITECTURE.md) are 1e-12 relative for f64 and 1e-4 for
// f32 over whole random-circuit states; exact for pure permutation and
// Hadamard entries (same operation order, no FMA contraction). Within one
// backend an entry's result does not depend on how its counter space is
// split into ranges (pool size, blocking, batching): ranges are aligned to
// kRangeGranule, and the AVX2 scalar head/tail code mirrors the vector
// rounding exactly.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sv/kernels.hpp"

namespace svsim::obs {
class MetricsRegistry;
}

namespace svsim::sv::simd {

/// Instruction-set tiers, narrowest vector first (NEON 128-bit, AVX2
/// 256-bit). Sve is vector-length agnostic ACLE behind a compile guard.
enum class Isa : int { Scalar = 0, Neon, Avx2, Sve };
inline constexpr std::size_t kNumIsas = 4;

const char* isa_name(Isa isa);

struct BackendInfo {
  Isa isa = Isa::Scalar;
  const char* name = "scalar";
  /// Hardware vector width the kernels are written for; 0 for the scalar
  /// backend (one complex per operation).
  unsigned vector_bits = 0;
  /// Kernels for this ISA were compiled into the binary.
  bool compiled = false;
  /// compiled && the executing CPU supports the ISA.
  bool available = false;
  /// Hand-vectorized KernelClass entries (per precision); the remaining
  /// entries of the table fall back to the scalar reference.
  std::size_t overridden_classes = 0;
};

/// All known backends in Isa order, with compiled/available resolved for
/// this binary and CPU.
std::vector<BackendInfo> backends();

/// Widest available ISA on the executing CPU (Sve > Avx2 > Neon >
/// Scalar; Scalar is always available).
Isa detect_isa();

/// The backend kernels currently dispatch through. Forces default
/// selection if none has happened yet.
BackendInfo active_backend();

/// Switch the active tables to `isa`. Returns false (and leaves the
/// active backend unchanged) when the ISA is not available here.
bool select_backend(Isa isa);
bool select_backend(std::string_view name);

/// Apply the SVSIM_SIMD override if set (unknown or unavailable values
/// fall back to detection with a stderr warning), else detect. Called
/// lazily on first dispatch; callable again to re-read the environment.
void select_default_backend();

/// Effective vector width (bits) of the active backend for the perf
/// model, given the state's scalar element size: the backend width, or
/// one complex (16 * element_bytes bits) for the scalar backend.
unsigned effective_vector_bits(unsigned element_bytes);

/// Bump the `sv.simd.dispatch.<class>` counter for one prepared gate in
/// `registry` (an ExecutionContext's metrics registry); the no-registry
/// form counts against the process-wide registry.
void count_dispatch(KernelClass cls);
void count_dispatch(KernelClass cls, obs::MetricsRegistry& registry);

/// Re-publish the `sv.simd.backend` / `sv.simd.vector_bits` gauges for
/// the active backend. Selection publishes them once (to the process-wide
/// registry); callers that reset the metrics registry afterwards (e.g.
/// `--metrics`) or carry a per-context registry use this to keep the dump
/// truthful.
void publish_metrics();
void publish_metrics(obs::MetricsRegistry& registry);

}  // namespace svsim::sv::simd
