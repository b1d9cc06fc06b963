#include "perf/kernel_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "qc/gate.hpp"
#include "sv/kernels.hpp"

namespace svsim::perf {
namespace {

using machine::ExecConfig;
using machine::MachineSpec;
using qc::Gate;

const MachineSpec kA64fx = MachineSpec::a64fx();
const ExecConfig kCfg;  // defaults: all threads, double, native VL

constexpr unsigned kN = 20;
constexpr double kAmps = 1024.0 * 1024.0;  // 2^20
constexpr double kAmpBytes = 16.0;

TEST(KernelModel, General1QFlopsAndBytes) {
  const KernelCost c = gate_cost(Gate::rx(10, 0.3), kN, kA64fx, kCfg);
  // 28 flops per pair, 2^19 pairs.
  EXPECT_DOUBLE_EQ(c.flops, 28.0 * kAmps / 2);
  // Read+write the whole state.
  EXPECT_DOUBLE_EQ(c.bytes, 2.0 * kAmps * kAmpBytes);
  EXPECT_EQ(c.touched_amplitudes, 1u << kN);
  // AI = 28 / 64 = 0.4375 flop/byte — the canonical SV number.
  EXPECT_NEAR(c.arithmetic_intensity(), 0.4375, 1e-12);
}

TEST(KernelModel, XGateMovesDataWithoutFlops) {
  const KernelCost c = gate_cost(Gate::x(5), kN, kA64fx, kCfg);
  EXPECT_DOUBLE_EQ(c.flops, 0.0);
  EXPECT_DOUBLE_EQ(c.bytes, 2.0 * kAmps * kAmpBytes);
}

TEST(KernelModel, DiagonalHalfSweepOnHighQubit) {
  // T on a high qubit touches half the amplitudes AND half the cache lines.
  const KernelCost c = gate_cost(Gate::t(15), kN, kA64fx, kCfg);
  EXPECT_EQ(c.touched_amplitudes, (1u << kN) / 2);
  EXPECT_DOUBLE_EQ(c.bytes, kAmps * kAmpBytes);  // 2 x half the state
}

TEST(KernelModel, DiagonalOnLowQubitStreamsWholeLines) {
  // T on qubit 0: touched entries are every other amplitude — every 256-byte
  // line is visited, so traffic equals the full sweep despite touching half.
  const KernelCost c = gate_cost(Gate::t(0), kN, kA64fx, kCfg);
  EXPECT_EQ(c.touched_amplitudes, (1u << kN) / 2);
  EXPECT_DOUBLE_EQ(c.bytes, 2.0 * kAmps * kAmpBytes);
}

TEST(KernelModel, LineGranularityThresholdAt16Amps) {
  // 256B line = 16 double amplitudes: bit 4 is the first "line-killing" bit.
  const double full = gate_cost(Gate::t(3), kN, kA64fx, kCfg).bytes;
  const double half = gate_cost(Gate::t(4), kN, kA64fx, kCfg).bytes;
  EXPECT_DOUBLE_EQ(full, 2.0 * kAmps * kAmpBytes);
  EXPECT_DOUBLE_EQ(half, kAmps * kAmpBytes);
}

TEST(KernelModel, CxTrafficDependsOnControlPosition) {
  // Control high (bit 19): half the lines. Control low (bit 0): all lines.
  const double high = gate_cost(Gate::cx(19, 5), kN, kA64fx, kCfg).bytes;
  const double low = gate_cost(Gate::cx(0, 5), kN, kA64fx, kCfg).bytes;
  EXPECT_DOUBLE_EQ(high, kAmps * kAmpBytes);
  EXPECT_DOUBLE_EQ(low, 2.0 * kAmps * kAmpBytes);
  // Same amplitudes touched either way.
  EXPECT_EQ(gate_cost(Gate::cx(19, 5), kN, kA64fx, kCfg).touched_amplitudes,
            gate_cost(Gate::cx(0, 5), kN, kA64fx, kCfg).touched_amplitudes);
}

TEST(KernelModel, CcxQuartersLinesWithTwoHighControls) {
  const KernelCost c = gate_cost(Gate::ccx(18, 19, 5), kN, kA64fx, kCfg);
  EXPECT_DOUBLE_EQ(c.bytes, 0.5 * kAmps * kAmpBytes);
  EXPECT_EQ(c.touched_amplitudes, (1u << kN) / 4);
}

TEST(KernelModel, McPhaseTouchesExponentiallyFewAmps) {
  const KernelCost c =
      gate_cost(Gate::mcp({16, 17, 18}, 19, 0.4), kN, kA64fx, kCfg);
  EXPECT_EQ(c.touched_amplitudes, (1u << kN) / 16);
  EXPECT_DOUBLE_EQ(c.bytes, 2.0 * kAmps * kAmpBytes / 16.0);
}

TEST(KernelModel, FusionRaisesArithmeticIntensity) {
  Xoshiro256 rng(1);
  const double ai1 =
      gate_cost(Gate::rx(8, 0.1), kN, kA64fx, kCfg).arithmetic_intensity();
  const double ai3 =
      gate_cost(Gate::unitary({3, 7, 11},
                              qc::Matrix::random_unitary(8, rng)),
                kN, kA64fx, kCfg)
          .arithmetic_intensity();
  const double ai5 =
      gate_cost(Gate::unitary({3, 7, 11, 13, 17},
                              qc::Matrix::random_unitary(32, rng)),
                kN, kA64fx, kCfg)
          .arithmetic_intensity();
  EXPECT_GT(ai3, 2.0 * ai1);
  EXPECT_GT(ai5, 2.0 * ai3);
}

TEST(KernelModel, SimdEfficiencyPenalizesLowTargets) {
  // 512-bit vectors over complex<double>: 4 pairs per vector; targets 0 and
  // 1 pay permute penalties, target >= 2 runs at full efficiency.
  const double e0 = simd_efficiency_for_target(0, 512, 8);
  const double e1 = simd_efficiency_for_target(1, 512, 8);
  const double e2 = simd_efficiency_for_target(2, 512, 8);
  const double e9 = simd_efficiency_for_target(9, 512, 8);
  EXPECT_LT(e0, e1);
  EXPECT_LT(e1, e2);
  EXPECT_DOUBLE_EQ(e2, e9);
  EXPECT_DOUBLE_EQ(e2, 0.95);
}

TEST(KernelModel, ShorterVectorsMoveThePenaltyBoundary) {
  // 128-bit vectors hold one complex<double>: no penalty anywhere.
  EXPECT_DOUBLE_EQ(simd_efficiency_for_target(0, 128, 8), 0.95);
  // Single precision halves the element, doubling lanes: penalty extends one
  // qubit higher than double precision at the same width.
  EXPECT_LT(simd_efficiency_for_target(2, 512, 4),
            simd_efficiency_for_target(2, 512, 8));
}

TEST(KernelModel, PrecisionHalvesTraffic) {
  ExecConfig sp = kCfg;
  sp.element_bytes = 4;
  const double dp_bytes = gate_cost(Gate::h(10), kN, kA64fx, kCfg).bytes;
  const double sp_bytes = gate_cost(Gate::h(10), kN, kA64fx, sp).bytes;
  EXPECT_DOUBLE_EQ(sp_bytes, dp_bytes / 2.0);
}

TEST(KernelModel, SwapTouchesHalfTheState) {
  const KernelCost c = gate_cost(Gate::swap(17, 19), kN, kA64fx, kCfg);
  EXPECT_EQ(c.touched_amplitudes, (1u << kN) / 2);
  EXPECT_DOUBLE_EQ(c.flops, 0.0);
  // Both operand bits high: half of all lines (2 subsets x quarter each).
  EXPECT_DOUBLE_EQ(c.bytes, kAmps * kAmpBytes);
}

TEST(KernelModel, SwapOnLowQubitsCapsAtFullSweep) {
  const KernelCost c = gate_cost(Gate::swap(0, 1), kN, kA64fx, kCfg);
  EXPECT_DOUBLE_EQ(c.bytes, 2.0 * kAmps * kAmpBytes);
}

TEST(KernelModel, NopGatesAreFree) {
  EXPECT_DOUBLE_EQ(gate_cost(Gate::i(3), kN, kA64fx, kCfg).bytes, 0.0);
  EXPECT_DOUBLE_EQ(gate_cost(Gate::barrier(), kN, kA64fx, kCfg).flops, 0.0);
}

TEST(KernelModel, MeasureCostsSweeps) {
  const KernelCost c = gate_cost(Gate::measure(3, 0), kN, kA64fx, kCfg);
  EXPECT_GT(c.bytes, kAmps * kAmpBytes);
  EXPECT_GT(c.flops, 0.0);
}

TEST(BlockedSweepCost, BytesPerGateFallAsOneOverK) {
  // k Hadamards on low targets: unblocked each streams the state; blocked
  // the whole sweep costs one read+write traversal.
  for (std::size_t k : {1u, 4u, 16u}) {
    std::vector<Gate> gates;
    for (std::size_t i = 0; i < k; ++i)
      gates.push_back(Gate::h(static_cast<unsigned>(i % 8)));
    const SweepCost c = blocked_sweep_cost(gates, kN, 14, kA64fx, kCfg);
    EXPECT_EQ(c.gates, k);
    EXPECT_DOUBLE_EQ(c.dram_bytes, 2.0 * kAmps * kAmpBytes);
    EXPECT_DOUBLE_EQ(c.bytes_per_gate(),
                     2.0 * kAmps * kAmpBytes / static_cast<double>(k));
    EXPECT_DOUBLE_EQ(c.unblocked_bytes,
                     static_cast<double>(k) * 2.0 * kAmps * kAmpBytes);
    EXPECT_NEAR(c.traffic_ratio(), 1.0 / static_cast<double>(k), 1e-12);
  }
}

TEST(BlockedSweepCost, FlopsMatchPerGateSum) {
  const std::vector<Gate> gates = {Gate::rx(0, 0.3), Gate::h(1),
                                   Gate::cz(2, 3)};
  const SweepCost c = blocked_sweep_cost(gates, kN, 10, kA64fx, kCfg);
  double flops = 0.0;
  for (const auto& g : gates) flops += gate_cost(g, kN, kA64fx, kCfg).flops;
  EXPECT_DOUBLE_EQ(c.flops, flops);
  // Blocking multiplies arithmetic intensity by the sweep's traffic win.
  EXPECT_GT(c.arithmetic_intensity(),
            gate_cost(gates[0], kN, kA64fx, kCfg).arithmetic_intensity());
  EXPECT_EQ(c.block_bytes, std::uint64_t{1} << 10 << 4);  // 2^10 amps * 16 B
}

TEST(BlockedSweepCost, RejectsBoundaryCrossingOperands) {
  const std::vector<Gate> gates = {Gate::h(10)};
  EXPECT_THROW(blocked_sweep_cost(gates, kN, 10, kA64fx, kCfg),
               svsim::Error);
  EXPECT_THROW(blocked_sweep_cost({}, kN, 0, kA64fx, kCfg), svsim::Error);
}

TEST(KernelModel, SmallerLineMachineLosesLessOnLowControls) {
  // Xeon has 64-byte lines (4 double amps): control at bit 2 already kills
  // lines there, while A64FX (16 amps/line) still streams everything.
  const MachineSpec xeon = MachineSpec::xeon_6148_dual();
  ExecConfig cfg;
  cfg.threads = 40;
  const double xeon_bytes = gate_cost(Gate::cx(2, 10), kN, xeon, cfg).bytes;
  ExecConfig cfg48;
  const double a64_bytes = gate_cost(Gate::cx(2, 10), kN, kA64fx, cfg48).bytes;
  EXPECT_LT(xeon_bytes, a64_bytes);
}

// ---- Pinned equivalence: the per-GateKind model the work record replaced --
//
// `reference::gate_cost` and `reference::kernel_price` are copies of the
// per-GateKind cost model and the kernel price as they stood before both
// read sv::KernelWork. The record must reproduce them field for field on
// every GateKind except a named list (kDiffers below).

namespace reference {

using qc::GateKind;

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

    // ---- k-qubit kernels -------------------------------------------------
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

    // ---- non-unitary -----------------------------------------------------
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

/// The kernel price before the record: the old classes (CRZ a controlled
/// diagonal, RZZ a 4-entry diagonal) and their counter spaces.
double kernel_price(const Gate& g) {
  const unsigned k = g.num_qubits();
  double counter_bits = k, counter_amps = 2, multiplies = 1, active = 1;
  switch (g.kind) {
    case GateKind::I:
    case GateKind::BARRIER:
      return 0.0;
    case GateKind::X:
    case GateKind::Y:
    case GateKind::SWAP:
    case GateKind::CX:
    case GateKind::CCX:
    case GateKind::MCX:
      multiplies = 0;
      break;
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::CCZ:
    case GateKind::MCP:
      counter_amps = 1;
      break;
    case GateKind::RZZ:
      counter_bits = 0;
      counter_amps = 1;
      break;
    case GateKind::DIAG: {
      const auto& d = g.diagonal_entries();
      counter_bits = 0;
      counter_amps = 1;
      active = 1.0 - static_cast<double>(std::count(d.begin(), d.end(),
                                                    qc::cplx{1.0, 0.0})) /
                         static_cast<double>(d.size());
      break;
    }
    case GateKind::SX:
    case GateKind::SXdg:
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::U:
    case GateKind::CY:
    case GateKind::CH:
    case GateKind::CRX:
    case GateKind::CRY:
      multiplies = 2;
      break;
    case GateKind::ISWAP:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::U2Q:
    case GateKind::CSWAP:
    case GateKind::UNITARY:
      counter_amps = static_cast<double>(pow2(k));
      multiplies = counter_amps;
      break;
    default:
      break;  // H, the Diag1 kinds and CRZ: one multiply per amplitude
  }
  return counter_amps / pow2(static_cast<unsigned>(counter_bits)) * active *
         (multiplies + 1.0);
}

}  // namespace reference

/// The kernel name the model reports now for a name the old model gave:
/// the old names were the model's own, the new ones sv::kernel_class_name.
std::string renamed(const std::string& old, qc::GateKind kind) {
  if (old == "perm1q") return kind == qc::GateKind::X ? "perm_x" : "perm_y";
  if (old == "gen1q") return "mat1";
  if (old == "gen2q") return "mat2";
  if (old == "genkq") return "matk";
  if (old == "ctrl1q") return "cmat1";
  if (old == "cx") return "mcx";
  if (old == "swap") return "perm_swap";
  return old;  // nop, h, diag1, mcphase, diagk, measure
}

/// Every GateKind on operands low, high and across the line boundary of
/// each spec and precision (bits 2-5), in both orders.
std::vector<Gate> every_kind(unsigned n) {
  Xoshiro256 rng(n);
  const std::vector<std::vector<unsigned>> operand_sets = {
      {0, 1, 2, 3},         {n - 1, n - 2, n - 3, n - 4}, {3, 4, 5, 2},
      {4, 3, 2, 5},         {2, n - 1, 5, 0},             {5, 0, n - 2, 3},
  };
  std::vector<Gate> gates;
  for (const auto& q : operand_sets) {
    const unsigned a = q[0], b = q[1], c = q[2], d = q[3];
    for (Gate g : {Gate::i(a), Gate::x(a), Gate::y(a), Gate::z(a), Gate::h(a),
                   Gate::s(a), Gate::sdg(a), Gate::t(a), Gate::tdg(a),
                   Gate::sx(a), Gate::sxdg(a), Gate::rx(a, 0.3),
                   Gate::ry(a, 0.4), Gate::rz(a, 0.5), Gate::p(a, 0.6),
                   Gate::u(a, 0.1, 0.2, 0.3), Gate::cx(a, b), Gate::cy(a, b),
                   Gate::cz(a, b), Gate::ch(a, b), Gate::cp(a, b, 0.7),
                   Gate::crx(a, b, 0.8), Gate::cry(a, b, 0.9),
                   Gate::crz(a, b, 1.1), Gate::swap(a, b), Gate::iswap(a, b),
                   Gate::rxx(a, b, 0.2), Gate::ryy(a, b, 0.3),
                   Gate::rzz(a, b, 0.4),
                   Gate::u2q(a, b, qc::Matrix::random_unitary(4, rng)),
                   Gate::ccx(a, b, c), Gate::ccz(a, b, c), Gate::cswap(a, b, c),
                   Gate::mcx({a, b, c}, d), Gate::mcp({a, b, c}, d, 1.3),
                   Gate::diag({a, b},
                              {std::polar(1.0, 0.1), std::polar(1.0, 0.2),
                               std::polar(1.0, 0.3), std::polar(1.0, 0.4)}),
                   Gate::diag({a, b, c}, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                                          std::polar(1.0, 0.5), -1.0}),
                   Gate::unitary({a}, qc::Matrix::random_unitary(2, rng)),
                   Gate::unitary({a, b}, qc::Matrix::random_unitary(4, rng)),
                   Gate::unitary({a, b, c}, qc::Matrix::random_unitary(8, rng)),
                   Gate::unitary({a, b, c, d},
                                 qc::Matrix::random_unitary(16, rng)),
                   Gate::measure(a, 0), Gate::reset(a), Gate::barrier()})
      gates.push_back(std::move(g));
  }
  return gates;
}

bool is_diag1_with_unit_entry(const Gate& g) {
  switch (g.kind) {
    case qc::GateKind::Z: case qc::GateKind::S: case qc::GateKind::Sdg:
    case qc::GateKind::T: case qc::GateKind::Tdg: case qc::GateKind::P:
      return true;
    default:
      return false;
  }
}

TEST(KernelWorkPin, CostAndPriceMatchThePerKindModelOutsideTheNamedList) {
  std::size_t compared = 0;
  for (const MachineSpec& m :
       {MachineSpec::a64fx(), MachineSpec::xeon_6148_dual(),
        MachineSpec::generic_host(8, 3.0, 20.0)})
    for (unsigned eb : {4u, 8u})
      for (unsigned n : {12u, 20u, 30u}) {
        ExecConfig cfg;
        cfg.element_bytes = eb;
        for (const Gate& g : every_kind(n)) {
          const std::string where = m.name + " eb=" + std::to_string(eb) +
                                    " n=" + std::to_string(n) + " " +
                                    g.to_string();
          if (g.is_unitary_op() || g.kind == qc::GateKind::BARRIER) {
            const double price = sv::kernel_price(sv::kernel_work(g));
            if (is_diag1_with_unit_entry(g))
              EXPECT_EQ(price, reference::kernel_price(g) / 2) << where;
            else
              EXPECT_EQ(price, reference::kernel_price(g)) << where;
          }
          // Listed: RZZ and CRZ run as DiagK, CSWAP as MatrixK, and a DIAG
          // touches only its entries that are not one (pinned below).
          if (g.kind == qc::GateKind::RZZ || g.kind == qc::GateKind::CRZ ||
              g.kind == qc::GateKind::CSWAP || g.kind == qc::GateKind::DIAG)
            continue;
          const KernelCost want = reference::gate_cost(g, n, m, cfg);
          const KernelCost got = gate_cost(g, n, m, cfg);
          EXPECT_EQ(std::string(got.kernel),
                    renamed(want.kernel, g.kind)) << where;
          EXPECT_EQ(got.flops, want.flops) << where;
          EXPECT_EQ(got.bytes, want.bytes) << where;
          EXPECT_EQ(got.touched_amplitudes, want.touched_amplitudes) << where;
          EXPECT_EQ(got.footprint_bytes, want.footprint_bytes) << where;
          EXPECT_EQ(got.simd_efficiency, want.simd_efficiency) << where;
          ++compared;
        }
      }
  EXPECT_GT(compared, 4000u);
}

TEST(KernelWorkPin, ListedKindsArePricedAsTheKernelTheyRun) {
  const unsigned n = 20;
  const auto same = [](const KernelCost& a, const KernelCost& b) {
    return std::string(a.kernel) == b.kernel && a.flops == b.flops &&
           a.bytes == b.bytes && a.touched_amplitudes == b.touched_amplitudes &&
           a.footprint_bytes == b.footprint_bytes &&
           a.simd_efficiency == b.simd_efficiency;
  };
  for (unsigned a : {0u, 5u, 19u}) {
    const unsigned b = a == 19 ? 3 : 17;
    const double th = 0.45;
    const qc::cplx em = std::polar(1.0, -th / 2), ep = std::polar(1.0, th / 2);
    EXPECT_TRUE(same(gate_cost(Gate::rzz(a, b, th), n, kA64fx, kCfg),
                     gate_cost(Gate::diag({a, b}, {em, ep, ep, em}), n, kA64fx,
                               kCfg)));
    EXPECT_TRUE(same(gate_cost(Gate::crz(a, b, th), n, kA64fx, kCfg),
                     gate_cost(Gate::diag({a, b}, {1.0, em, 1.0, ep}), n,
                               kA64fx, kCfg)));
    EXPECT_TRUE(same(gate_cost(Gate::cswap(a, b, 9), n, kA64fx, kCfg),
                     gate_cost(Gate::unitary({a, b, 9},
                                             Gate::cswap(0, 1, 2).matrix()),
                               n, kA64fx, kCfg)));
  }
  // A DIAG whose entries are one except where both operands are 1 touches
  // a quarter of the state, and a high operand pair a quarter of the lines.
  const KernelCost d = gate_cost(
      Gate::diag({18, 19}, {1.0, 1.0, 1.0, qc::cplx(0.0, 1.0)}), n, kA64fx,
      kCfg);
  EXPECT_EQ(d.touched_amplitudes, (1u << n) / 4);
  EXPECT_DOUBLE_EQ(d.flops, 6.0 * (1u << n) / 4);
  EXPECT_DOUBLE_EQ(d.bytes, 2.0 * kAmps * kAmpBytes / 4);
  EXPECT_STREQ(d.kernel, "diagk");
  // The identity diagonal is skipped entirely.
  const KernelCost id =
      gate_cost(Gate::diag({3, 7}, {1.0, 1.0, 1.0, 1.0}), n, kA64fx, kCfg);
  EXPECT_EQ(id.touched_amplitudes, 0u);
  EXPECT_DOUBLE_EQ(id.bytes, 0.0);
}

}  // namespace
}  // namespace svsim::perf
