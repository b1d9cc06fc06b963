// Cache-block sizing for LocalSweep phases.
//
// State-vector simulation is memory-bandwidth-bound (~0.44 flop/byte for a
// general 1-qubit gate), so once fusion has raised per-gate arithmetic
// intensity the remaining lever is to stop re-streaming the state from DRAM
// for every gate. A gate whose operand qubits all lie below `block_qubits`
// acts independently and identically on every aligned block of
// 2^block_qubits amplitudes. A *sweep* is a run of consecutive such gates:
// the blocked engine (engine.hpp) applies the whole sweep to one block —
// which fits in L2 by construction — before moving to the next, so k gates
// cost one traversal of the state instead of k.
//
// The grouping itself is part of the plan compiler (sv/plan.hpp,
// `append_window_phases`), which emits each sweep as a LocalSweep phase.
// This header keeps the block-size rule the compiler and the benches share.
#pragma once

#include <cstdint>

namespace svsim::sv {

/// Default per-core cache budget a block must fit in: comfortably inside an
/// A64FX CMG's 8 MiB L2 share (~680 KiB/core) and typical x86 private L2
/// sizes. Used when neither the caller nor a machine description gives one.
inline constexpr std::uint64_t kDefaultCacheBytes = 512u * 1024u;

/// Largest block exponent whose block (2^b amplitudes of `amp_bytes`) fits
/// in `cache_bytes`, clamped to keep >= 2^min_free qubits of parallelism on
/// an n-qubit register (never below 1, never above n).
unsigned auto_block_qubits(unsigned num_qubits, std::uint64_t cache_bytes,
                           unsigned amp_bytes, unsigned min_free);

}  // namespace svsim::sv
