#include "sv/fusion.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "qc/dense.hpp"
#include "qc/library.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace svsim::sv {
namespace {

using qc::Circuit;
using qc::Gate;
using qc::GateKind;

double circuit_equivalence_error(const Circuit& a, const Circuit& b) {
  return qc::dense::circuit_unitary(a).distance(qc::dense::circuit_unitary(b));
}

/// Summed kernel price of the unitary gates (the fusion cost gate's unit).
double circuit_price(const Circuit& c) {
  double price = 0.0;
  for (const auto& g : c.gates())
    if (g.is_unitary_op()) price += kernel_price(prepare_gate<double>(g));
  return price;
}

TEST(Fusion, SingleGatePassesThroughUnchanged) {
  Circuit c(3);
  c.cx(0, 1);
  const Circuit f = fuse(c, {});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.gate(0).kind, GateKind::CX);
}

TEST(Fusion, MergesSingleQubitChain) {
  Circuit c(2);
  c.h(0).t(0).s(0).h(0);
  FusionOptions opts;
  opts.max_width = 2;
  const Circuit f = fuse(c, opts);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.gate(0).kind, GateKind::UNITARY);
  EXPECT_EQ(f.gate(0).num_qubits(), 1u);
  EXPECT_LT(circuit_equivalence_error(c, f), 1e-12);
}

TEST(Fusion, RespectsMaxWidth) {
  Circuit c(6);
  for (unsigned q = 0; q + 1 < 6; ++q) c.cx(q, q + 1);
  FusionOptions opts;
  opts.max_width = 3;
  const Circuit f = fuse(c, opts);
  for (const auto& g : f.gates())
    EXPECT_LE(g.num_qubits(), 3u) << g.to_string();
  EXPECT_LT(circuit_equivalence_error(c, f), 1e-12);
}

TEST(Fusion, DiagonalRunBecomesDiagGate) {
  Circuit c(3);
  c.t(0).cz(0, 1).rz(1, 0.4).cp(1, 2, 0.7).rzz(0, 2, 0.9);
  FusionOptions opts;
  opts.max_width = 3;
  const Circuit f = fuse(c, opts);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.gate(0).kind, GateKind::DIAG);
  EXPECT_LT(circuit_equivalence_error(c, f), 1e-12);
}

TEST(Fusion, DiagonalPreferenceCanBeDisabled) {
  Circuit c(2);
  c.t(0).cz(0, 1);
  FusionOptions opts;
  opts.prefer_diagonal = false;
  const Circuit f = fuse(c, opts);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.gate(0).kind, GateKind::UNITARY);
}

TEST(Fusion, BarrierFlushesGroup) {
  Circuit c(2);
  c.h(0).barrier().h(0);
  const Circuit f = fuse(c, {});
  // Two H gates must not merge across the barrier.
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f.gate(1).kind, GateKind::BARRIER);
}

TEST(Fusion, MeasureFlushesAndIsPreserved) {
  Circuit c(2);
  c.h(0).t(0).measure(0, 0).h(0);
  const Circuit f = fuse(c, {});
  bool has_measure = false;
  for (const auto& g : f.gates()) has_measure |= g.kind == GateKind::MEASURE;
  EXPECT_TRUE(has_measure);
}

TEST(Fusion, WideGatesPassThrough) {
  Circuit c(5);
  c.append(Gate::mcx({0, 1, 2, 3}, 4));
  FusionOptions opts;
  opts.max_width = 3;
  const Circuit f = fuse(c, opts);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.gate(0).kind, GateKind::MCX);
}

TEST(Fusion, DoesNotRaiseQftPrice) {
  const Circuit c = qc::qft(6);
  FusionOptions opts;
  opts.max_width = 3;
  const Circuit f = fuse(c, opts);
  EXPECT_LE(circuit_price(f), circuit_price(c));
  EXPECT_LT(circuit_equivalence_error(c, f), 1e-10);
}

TEST(Fusion, KeepsOnlyMergesThatLowerThePrice) {
  // Disjoint 2-qubit unitaries would become one 4-qubit unitary: 2^4
  // multiplies per amplitude against 4 + 4.
  Xoshiro256 rng(5);
  Circuit c(4);
  c.append(Gate::u2q(0, 1, qc::Matrix::random_unitary(4, rng)));
  c.append(Gate::u2q(2, 3, qc::Matrix::random_unitary(4, rng)));
  FusionOptions opts;
  opts.max_width = 4;
  EXPECT_EQ(fuse(c, opts).size(), 2u);
  // Two unitaries sharing a qubit: one 3-qubit unitary is cheaper.
  c.append(Gate::u2q(1, 2, qc::Matrix::random_unitary(4, rng)));
  const Circuit f = fuse(c, opts);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_LE(circuit_price(f), circuit_price(c));
  EXPECT_LT(circuit_equivalence_error(c, f), 1e-12);
}

TEST(Fusion, NonDiagonalGateEndsDiagonalGroup) {
  // The phases merge into one DIAG; the H after them is not folded in.
  Circuit c(3);
  c.cp(0, 1, 0.3).cp(0, 2, 0.5).h(1);
  FusionOptions opts;
  opts.max_width = 3;
  const Circuit f = fuse(c, opts);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.gate(0).kind, GateKind::DIAG);
  EXPECT_EQ(f.gate(1).kind, GateKind::H);
  EXPECT_LT(circuit_equivalence_error(c, f), 1e-12);
}

class FusionWidthEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusionWidthEquivalence, RandomCircuitsEquivalentAtEveryWidth) {
  const unsigned width = GetParam();
  for (std::uint64_t seed : {11ull, 22ull}) {
    const Circuit c = qc::random_clifford_t(5, 60, seed);
    FusionOptions opts;
    opts.max_width = width;
    const Circuit f = fuse(c, opts);
    EXPECT_LT(circuit_equivalence_error(c, f), 1e-10)
        << "width=" << width << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FusionWidthEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Fusion, QuantumVolumeCircuitEquivalence) {
  const Circuit c = qc::random_quantum_volume(6, 4, 9);
  FusionOptions opts;
  opts.max_width = 4;
  const Circuit f = fuse(c, opts);
  const auto a = qc::dense::run(c);
  const auto b = qc::dense::run(f);
  EXPECT_LT(qc::dense::distance(a, b), 1e-10);
  EXPECT_LE(f.size(), c.size());
}

/// A seeded soup of diagonal, controlled and 1-qubit gates.
Circuit gate_soup(unsigned n, std::size_t length, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Circuit c(n);
  const auto q = [&] { return static_cast<unsigned>(rng.uniform_int(n)); };
  const auto other = [&](unsigned a) {
    unsigned b = q();
    while (b == a) b = q();
    return b;
  };
  for (std::size_t i = 0; i < length; ++i) {
    const unsigned a = q(), b = other(a);
    const double phi = 6.28 * rng.uniform();
    switch (rng.uniform_int(12)) {
      case 0: c.t(a); break;
      case 1: c.rz(a, phi); break;
      case 2: c.cz(a, b); break;
      case 3: c.cp(a, b, phi); break;
      case 4: c.crz(a, b, phi); break;
      case 5: c.rzz(a, b, phi); break;
      case 6: c.cx(a, b); break;
      case 7: c.h(a); break;
      case 8: c.append(Gate::cry(a, b, phi)); break;
      case 9: c.append(Gate::diag({a, b}, {std::polar(1.0, phi), 1.0, 1.0,
                                           std::polar(1.0, -phi)}));
        break;
      default:
        if (n >= 3) {
          unsigned t = other(a);
          while (t == b) t = other(a);
          c.append(Gate::mcp({a, b}, t, phi));
        } else {
          c.s(a);
        }
    }
  }
  return c;
}

/// Max amplitude distance between the fused and unfused runs of `c` at
/// precision T, each against the dense reference.
template <typename T>
double fused_unfused_dense_error(const Circuit& c, unsigned width) {
  FusionOptions opts;
  opts.max_width = width;
  const Circuit f = fuse(c, opts);
  const auto want = qc::dense::run(c);
  Simulator<T> sim;
  double worst = 0.0;
  for (const Circuit* run : {&c, &f}) {
    const std::vector<qc::cplx> got = sim.run(*run).to_vector();
    worst = std::max(worst, qc::dense::distance(got, want));
  }
  return worst;
}

class FusedUnfusedDense : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedUnfusedDense, QftQvAndGateSoupAgree) {
  const unsigned width = GetParam();
  const std::vector<Circuit> circuits = {
      qc::qft(5), qc::random_quantum_volume(5, 6, 17), gate_soup(5, 80, 3),
      gate_soup(4, 60, 4)};
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    EXPECT_LT(fused_unfused_dense_error<double>(circuits[i], width), 1e-13)
        << "circuit " << i << " width " << width;
    EXPECT_LT(fused_unfused_dense_error<float>(circuits[i], width), 1e-5)
        << "circuit " << i << " width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FusedUnfusedDense,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Fusion, InvalidWidthRejected) {
  Circuit c(2);
  c.h(0);
  FusionOptions opts;
  opts.max_width = 0;
  EXPECT_THROW(fuse(c, opts), Error);
  opts.max_width = 9;
  EXPECT_THROW(fuse(c, opts), Error);
}

TEST(Fusion, IdentityGatesAreDropped) {
  Circuit c(2);
  c.h(0).i(1).i(0).h(0);
  const Circuit f = fuse(c, {});
  for (const auto& g : f.gates()) EXPECT_NE(g.kind, GateKind::I);
  EXPECT_LT(circuit_equivalence_error(c, f), 1e-12);
}

}  // namespace
}  // namespace svsim::sv
