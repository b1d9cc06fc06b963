// Per-gate cost derivation: flops, memory traffic, SIMD efficiency.
//
// This is the analysis the paper's class of work performs by hand; here it
// is executable. For each gate kind on an n-qubit register we derive:
//
//  * flops — counting a complex multiply as 6 and a complex add as 2;
//  * touched amplitudes — controlled/diagonal gates touch subsets;
//  * memory traffic in *cache lines*, which is where control/target bit
//    positions matter: a constraint on a bit at position >= log2(amps/line)
//    eliminates whole lines, while a constraint below that only masks
//    entries within lines that are fetched anyway. On A64FX the line is
//    256 B = 16 double amplitudes, so a CX with a low control bit streams
//    the whole state even though it updates a quarter of it;
//  * SIMD efficiency as a function of the contiguous-run length 2^t vs. the
//    vector length — the low-target-qubit permute penalty of SVE kernels.
#pragma once

#include <cstdint>

#include "machine/exec_config.hpp"
#include "machine/machine_spec.hpp"
#include "qc/gate.hpp"

namespace svsim::perf {

/// Cost profile of one gate applied to a 2^n state.
struct KernelCost {
  const char* kernel = "";           ///< kernel-class name (static string)
  double flops = 0.0;
  double bytes = 0.0;                ///< traffic incl. read+write, line-granular
  std::uint64_t touched_amplitudes = 0;
  std::uint64_t footprint_bytes = 0; ///< lines actually visited (for level selection)
  double simd_efficiency = 1.0;

  double arithmetic_intensity() const noexcept {
    return bytes > 0.0 ? flops / bytes : 0.0;
  }
};

/// SIMD efficiency of a unit-run-length-2^t strided pair kernel for vectors
/// of `vector_bits` over complex elements of 2*element_bytes.
double simd_efficiency_for_target(unsigned target, unsigned vector_bits,
                                  unsigned element_bytes);

/// Derives the cost profile of `gate` on an n-qubit register for machine
/// `m` under `config`. Non-unitary ops (measure/reset) are costed as one
/// state sweep (probability reduction + collapse); barriers are free.
KernelCost gate_cost(const qc::Gate& gate, unsigned num_qubits,
                     const machine::MachineSpec& m,
                     const machine::ExecConfig& config);

/// Cost profile of a cache-blocked sweep: `k` gates applied per 2^b-sized
/// block in one traversal of the state (sv/engine.hpp). DRAM traffic for
/// the whole sweep is one read + one write of the state — in-block gate
/// traffic is served from cache — so effective bytes per gate fall as 1/k
/// while flops are unchanged and arithmetic intensity rises k-fold.
struct SweepCost {
  std::size_t gates = 0;        ///< gates in the sweep
  double flops = 0.0;           ///< summed over the gates
  double dram_bytes = 0.0;      ///< one read+write traversal of the state
  double unblocked_bytes = 0.0; ///< Σ per-gate line-granular traffic
  std::uint64_t block_bytes = 0;///< working-set bytes of one block

  double bytes_per_gate() const noexcept {
    return gates > 0 ? dram_bytes / static_cast<double>(gates) : 0.0;
  }
  double arithmetic_intensity() const noexcept {
    return dram_bytes > 0.0 ? flops / dram_bytes : 0.0;
  }
  /// Traffic ratio vs. applying the same gates unblocked (< 1 is a win).
  double traffic_ratio() const noexcept {
    return unblocked_bytes > 0.0 ? dram_bytes / unblocked_bytes : 0.0;
  }
};

/// Costs a blocked sweep of `gates` (each block-local for `block_qubits`)
/// on an n-qubit register. Throws if a gate's operands reach the boundary.
SweepCost blocked_sweep_cost(const std::vector<qc::Gate>& gates,
                             unsigned num_qubits, unsigned block_qubits,
                             const machine::MachineSpec& m,
                             const machine::ExecConfig& config);

}  // namespace svsim::perf
