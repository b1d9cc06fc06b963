#include "perf/kernel_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace svsim::perf {

using machine::ExecConfig;
using machine::MachineSpec;
using qc::Gate;
using qc::GateKind;

namespace {

/// Flops for one general 2x2 pair update: 4 cmul (24) + 2 cadd (4).
constexpr double kFlopsPair1Q = 28.0;
/// Hadamard pair: 2 cadd (4) + 2 real scalings (4).
constexpr double kFlopsPairH = 8.0;
/// Pure phase multiply per amplitude: 1 cmul.
constexpr double kFlopsPhase = 6.0;
/// General 4x4 quad update: 16 cmul (96) + 12 cadd (24).
constexpr double kFlopsQuad2Q = 120.0;

/// Number of amplitudes per cache line.
std::uint64_t amps_per_line(const MachineSpec& m, unsigned element_bytes) {
  const unsigned amp_bytes = 2 * element_bytes;
  return std::max<std::uint64_t>(1, m.mem_line_bytes() / amp_bytes);
}

/// Lines visited when the touched index set constrains the bits in
/// `constrained` (to either polarity): constraints at positions >=
/// log2(amps/line) halve the number of lines; lower constraints do not.
std::uint64_t lines_touched(std::uint64_t total_amps, std::uint64_t line_amps,
                            const std::vector<unsigned>& constrained) {
  const unsigned low_bits = ilog2(line_amps);
  std::uint64_t lines = total_amps / line_amps;
  if (lines == 0) lines = 1;
  for (unsigned b : constrained)
    if (b >= low_bits && lines > 1) lines /= 2;
  return lines;
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
  const unsigned vbits = config.effective_vector_bits(m);
  const std::uint64_t N = pow2(n);
  const double amp_bytes = 2.0 * eb;
  const std::uint64_t line_amps = amps_per_line(m, eb);
  const std::uint64_t line_bytes = m.mem_line_bytes();

  KernelCost cost;

  auto full_sweep = [&](double flops_total, double eff) {
    cost.flops = flops_total;
    cost.touched_amplitudes = N;
    cost.footprint_bytes = N * static_cast<std::uint64_t>(amp_bytes);
    cost.bytes = 2.0 * static_cast<double>(N) * amp_bytes;  // read + write
    cost.simd_efficiency = eff;
  };

  auto constrained_sweep = [&](const std::vector<unsigned>& constrained,
                               std::uint64_t touched, double flops_total,
                               double eff) {
    const std::uint64_t lines = lines_touched(N, line_amps, constrained);
    cost.flops = flops_total;
    cost.touched_amplitudes = touched;
    cost.footprint_bytes = lines * line_bytes;
    cost.bytes = 2.0 * static_cast<double>(lines * line_bytes);
    cost.simd_efficiency = eff;
  };

  const double pairs = static_cast<double>(N) / 2.0;

  switch (g.kind) {
    case GateKind::I:
    case GateKind::BARRIER:
      cost.kernel = "nop";
      cost.simd_efficiency = 1.0;
      return cost;

    // ---- full-sweep 1-qubit kernels ------------------------------------
    case GateKind::X: {
      const double eff = simd_efficiency_for_target(g.qubits[0], vbits, eb);
      full_sweep(0.0, eff);
      cost.kernel = "perm1q";
      return cost;
    }
    case GateKind::Y: {
      const double eff = simd_efficiency_for_target(g.qubits[0], vbits, eb);
      full_sweep(4.0 * pairs, eff);
      cost.kernel = "perm1q";
      return cost;
    }
    case GateKind::H: {
      const double eff = simd_efficiency_for_target(g.qubits[0], vbits, eb);
      full_sweep(kFlopsPairH * pairs, eff);
      cost.kernel = "h";
      return cost;
    }
    case GateKind::SX:
    case GateKind::SXdg:
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::U: {
      const double eff = simd_efficiency_for_target(g.qubits[0], vbits, eb);
      full_sweep(kFlopsPair1Q * pairs, eff);
      cost.kernel = "gen1q";
      return cost;
    }
    case GateKind::RZ: {
      // diag(e^-iθ/2, e^iθ/2): every amplitude scaled.
      full_sweep(kFlopsPhase * static_cast<double>(N), 0.95);
      cost.kernel = "diag1";
      return cost;
    }

    // ---- half-sweep diagonal 1-qubit kernels ----------------------------
    case GateKind::Z:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::P: {
      const unsigned t = g.qubits[0];
      constrained_sweep({t}, N / 2, kFlopsPhase * static_cast<double>(N / 2),
                        0.95);
      cost.kernel = "diag1";
      return cost;
    }

    // ---- controlled 1-qubit kernels --------------------------------------
    case GateKind::CX:
    case GateKind::CCX:
    case GateKind::MCX: {
      const auto controls = g.controls();
      const unsigned nc = static_cast<unsigned>(controls.size());
      const std::uint64_t touched = N >> nc;
      // The gather-based controlled kernel loses additional vector
      // efficiency relative to the plain strided kernel.
      const double eff =
          0.7 * simd_efficiency_for_target(g.targets()[0], vbits, eb);
      constrained_sweep(controls, touched, 0.0, eff);
      cost.kernel = "cx";
      return cost;
    }
    case GateKind::CY:
    case GateKind::CH:
    case GateKind::CRX:
    case GateKind::CRY: {
      const auto controls = g.controls();
      const unsigned nc = static_cast<unsigned>(controls.size());
      const std::uint64_t touched = N >> nc;
      const double eff =
          0.7 * simd_efficiency_for_target(g.targets()[0], vbits, eb);
      constrained_sweep(controls, touched,
                        kFlopsPair1Q * static_cast<double>(touched) / 2.0,
                        eff);
      cost.kernel = "ctrl1q";
      return cost;
    }
    case GateKind::CRZ: {
      // diag with d0 != 1: touches the full control subspace.
      const auto controls = g.controls();
      const std::uint64_t touched = N >> controls.size();
      constrained_sweep(controls, touched,
                        kFlopsPhase * static_cast<double>(touched), 0.8);
      cost.kernel = "cdiag1";
      return cost;
    }
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::CCZ:
    case GateKind::MCP: {
      // Phase on the all-ones subspace of all operands.
      std::vector<unsigned> ones = g.qubits;
      const std::uint64_t touched = N >> ones.size();
      constrained_sweep(ones, touched,
                        kFlopsPhase * static_cast<double>(touched), 0.8);
      cost.kernel = "mcphase";
      return cost;
    }

    // ---- 2-qubit kernels ---------------------------------------------------
    case GateKind::SWAP: {
      // Touches the q0 != q1 half; both operand bits are constrained within
      // each of the two exchanged subsets.
      constrained_sweep({g.qubits[0], g.qubits[1]}, N / 2, 0.0, 0.6);
      // Two subsets are visited (01 and 10): double the line count derived
      // from a single fully-constrained subset, capped at the full state.
      cost.bytes = std::min(2.0 * cost.bytes,
                            2.0 * static_cast<double>(N) * amp_bytes);
      cost.footprint_bytes =
          std::min<std::uint64_t>(2 * cost.footprint_bytes,
                                  N * static_cast<std::uint64_t>(amp_bytes));
      cost.kernel = "swap";
      return cost;
    }
    case GateKind::ISWAP:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::U2Q: {
      const unsigned tmin = std::min(g.qubits[0], g.qubits[1]);
      const double eff =
          0.85 * simd_efficiency_for_target(tmin, vbits, eb);
      full_sweep(kFlopsQuad2Q * static_cast<double>(N) / 4.0, eff);
      cost.kernel = "gen2q";
      return cost;
    }
    case GateKind::RZZ: {
      full_sweep(kFlopsPhase * static_cast<double>(N), 0.9);
      cost.kernel = "diag2";
      return cost;
    }
    case GateKind::CSWAP: {
      constrained_sweep({g.qubits[0], g.qubits[1], g.qubits[2]}, N / 4, 0.0,
                        0.5);
      cost.bytes = std::min(2.0 * cost.bytes,
                            2.0 * static_cast<double>(N) * amp_bytes);
      cost.footprint_bytes =
          std::min<std::uint64_t>(2 * cost.footprint_bytes,
                                  N * static_cast<std::uint64_t>(amp_bytes));
      cost.kernel = "cswap";
      return cost;
    }

    // ---- k-qubit kernels ------------------------------------------------------
    case GateKind::DIAG: {
      full_sweep(kFlopsPhase * static_cast<double>(N), 0.8);
      cost.kernel = "diagk";
      return cost;
    }
    case GateKind::UNITARY: {
      const unsigned k = g.num_qubits();
      if (k == 1) {
        const double eff = simd_efficiency_for_target(g.qubits[0], vbits, eb);
        full_sweep(kFlopsPair1Q * pairs, eff);
        cost.kernel = "gen1q";
        return cost;
      }
      if (k == 2) {
        const unsigned tmin = std::min(g.qubits[0], g.qubits[1]);
        const double eff =
            0.85 * simd_efficiency_for_target(tmin, vbits, eb);
        full_sweep(kFlopsQuad2Q * static_cast<double>(N) / 4.0, eff);
        cost.kernel = "gen2q";
        return cost;
      }
      // 2^k x 2^k blocks: per group of 2^k amps, 2^k rows of (2^k cmul +
      // (2^k - 1) cadd).
      const double sub = static_cast<double>(pow2(k));
      const double flops_per_group = sub * (6.0 * sub + 2.0 * (sub - 1.0));
      const double groups = static_cast<double>(N) / sub;
      full_sweep(flops_per_group * groups, 0.7);
      cost.kernel = "genkq";
      return cost;
    }

    // ---- non-unitary -----------------------------------------------------------
    case GateKind::MEASURE:
    case GateKind::RESET: {
      // Probability reduction (read all) + collapse (write half on average):
      // model as 1.5 sweeps of traffic and a multiply-add per amplitude.
      cost.flops = 4.0 * static_cast<double>(N);
      cost.touched_amplitudes = N;
      cost.footprint_bytes = N * static_cast<std::uint64_t>(amp_bytes);
      cost.bytes = 1.5 * static_cast<double>(N) * amp_bytes;
      cost.simd_efficiency = 0.9;
      cost.kernel = "measure";
      return cost;
    }
  }
  throw Error("gate_cost: unhandled gate kind");
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
