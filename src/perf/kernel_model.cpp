#include "perf/kernel_model.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sv/kernels.hpp"

namespace svsim::perf {

using machine::ExecConfig;
using machine::MachineSpec;
using qc::Gate;
using qc::GateKind;

namespace {

/// Flops per touched amplitude: a row of m complex multiplies (6 flops
/// each) and m - 1 complex adds (2 each); Hadamard one add and one real
/// scaling (2 + 2), Y two sign flips; the other permutations none.
double flops_per_amplitude(const sv::KernelWork& w) {
  if (w.cls == sv::KernelClass::Hadamard) return 4.0;
  if (w.cls == sv::KernelClass::PermY) return 2.0;
  return w.multiplies > 0 ? 8.0 * w.multiplies - 2.0 : 0.0;
}

/// Vector efficiency of a class: the run-length penalty of its run qubit
/// for the strided classes (derated for the gather-based controlled kernel
/// and the 4x4 quad kernel), a fixed share for the others.
double class_simd_efficiency(const sv::KernelWork& w, unsigned vector_bits,
                             unsigned element_bytes) {
  const double run =
      simd_efficiency_for_target(w.run_qubit, vector_bits, element_bytes);
  switch (w.cls) {
    case sv::KernelClass::PermX:
    case sv::KernelClass::PermY:
    case sv::KernelClass::Hadamard:
    case sv::KernelClass::Matrix1:
      return run;
    case sv::KernelClass::Mcx:
    case sv::KernelClass::CtrlMatrix1:
      return 0.7 * run;
    case sv::KernelClass::Matrix2:
      return 0.85 * run;
    case sv::KernelClass::Diag1:
      return 0.95;
    case sv::KernelClass::McPhase:
    case sv::KernelClass::DiagK:
      return 0.8;
    case sv::KernelClass::PermSwap:
      return 0.6;
    case sv::KernelClass::MatrixK:
      return 0.7;
    case sv::KernelClass::Nop:
    case sv::KernelClass::Unsupported:
      break;
  }
  return 1.0;
}

}  // namespace

double simd_efficiency_for_target(unsigned target, unsigned vector_bits,
                                  unsigned element_bytes) {
  const double lanes =
      static_cast<double>(vector_bits) / (16.0 * element_bytes);
  if (lanes <= 1.0) return 0.95;
  const double run = static_cast<double>(pow2(target));
  if (run >= lanes) return 0.95;
  // Short contiguous runs force intra-register permutes; efficiency degrades
  // towards but not to the scalar floor (SVE/AVX shuffle kernels recover
  // roughly half the lost throughput).
  return 0.45 + 0.5 * (run / lanes) * 0.95;
}

KernelCost gate_cost(const Gate& g, unsigned n, const MachineSpec& m,
                     const ExecConfig& config) {
  const unsigned eb = config.element_bytes;
  const std::uint64_t N = pow2(n);
  const double amp_bytes = 2.0 * eb;
  const std::uint64_t state_bytes = N * static_cast<std::uint64_t>(amp_bytes);

  KernelCost cost;
  if (g.kind == GateKind::MEASURE || g.kind == GateKind::RESET) {
    // Probability reduction (read all) + collapse (write half on average):
    // model as 1.5 sweeps of traffic and a multiply-add per amplitude.
    cost.flops = 4.0 * static_cast<double>(N);
    cost.touched_amplitudes = N;
    cost.footprint_bytes = state_bytes;
    cost.bytes = 1.5 * static_cast<double>(N) * amp_bytes;
    cost.simd_efficiency = 0.9;
    cost.kernel = "measure";
    return cost;
  }

  const sv::KernelWork w = sv::kernel_work(g);
  cost.kernel = sv::kernel_class_name(w.cls);
  cost.simd_efficiency =
      class_simd_efficiency(w, config.effective_vector_bits(m), eb);
  if (w.cls == sv::KernelClass::Nop) return cost;
  cost.touched_amplitudes = static_cast<std::uint64_t>(
      static_cast<double>(N) * w.touched_share());
  cost.flops =
      flops_per_amplitude(w) * static_cast<double>(cost.touched_amplitudes);
  // Lines visited: each select bit at or above log2(amps/line) halves the
  // lines of one pattern; a select bit below it only masks entries within
  // lines that are fetched anyway. On A64FX the line is 256 B = 16 double
  // amplitudes, so a CX with a low control streams the whole state.
  const std::uint64_t line_amps =
      std::max<std::uint64_t>(1, m.mem_line_bytes() / (2 * eb));
  const unsigned high = popcount(w.select & ~(line_amps - 1));
  const std::uint64_t lines =
      std::max<std::uint64_t>(1, (N / line_amps) >> high) * w.patterns;
  cost.footprint_bytes =
      std::min<std::uint64_t>(lines * m.mem_line_bytes(), state_bytes);
  cost.bytes = 2.0 * static_cast<double>(cost.footprint_bytes);  // read+write
  return cost;
}

SweepCost blocked_sweep_cost(const std::vector<Gate>& gates, unsigned n,
                             unsigned block_qubits, const MachineSpec& m,
                             const ExecConfig& config) {
  require(block_qubits >= 1 && block_qubits <= n,
          "blocked_sweep_cost: block_qubits out of range");
  SweepCost sweep;
  sweep.gates = gates.size();
  const std::uint64_t N = pow2(n);
  const double amp_bytes = 2.0 * config.element_bytes;
  sweep.block_bytes =
      pow2(block_qubits) * static_cast<std::uint64_t>(amp_bytes);
  for (const auto& g : gates) {
    for (unsigned q : g.qubits)
      require(q < block_qubits,
              "blocked_sweep_cost: gate operand crosses the block boundary");
    const KernelCost kc = gate_cost(g, n, m, config);
    sweep.flops += kc.flops;
    sweep.unblocked_bytes += kc.bytes;
  }
  // One read + one write of the state serves the whole sweep; gates whose
  // touched set is a subset (diagonal/controlled) cannot reduce this, since
  // the sweep's first full-coverage gate already streams every line.
  sweep.dram_bytes = 2.0 * static_cast<double>(N) * amp_bytes;
  return sweep;
}

}  // namespace svsim::perf
