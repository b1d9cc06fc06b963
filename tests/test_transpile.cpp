#include "qc/transpile.hpp"

#include <gtest/gtest.h>

#include <numbers>
#include <ostream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "qc/dense.hpp"
#include "qc/library.hpp"

namespace svsim::qc {

// Prints a test parameter as kind and qubits (e.g. "swap_0_1"). Without it
// googletest dumps the Gate's raw bytes, heap pointers included, and the
// per-case test names that gtest_discover_tests builds change every run.
void PrintTo(const Gate& g, std::ostream* os) {
  *os << gate_kind_name(g.kind);
  for (unsigned q : g.qubits) *os << '_' << q;
}

namespace {

double unitary_error(const Circuit& a, const Circuit& b) {
  return dense::circuit_unitary(a).distance(dense::circuit_unitary(b));
}

double unitary_error_up_to_phase(const Circuit& a, const Circuit& b) {
  return dense::circuit_unitary(a).distance_up_to_phase(
      dense::circuit_unitary(b));
}

// ---- ZYZ decomposition ------------------------------------------------------

TEST(Zyz, ReconstructsRandomUnitaries) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 50; ++i) {
    const Matrix u = Matrix::random_unitary(2, rng);
    const ZyzAngles a = zyz_decompose(u);
    const Matrix rebuilt =
        (mat::RZ(a.beta) * mat::RY(a.gamma) * mat::RZ(a.delta)) *
        std::polar(1.0, a.alpha);
    EXPECT_LT(rebuilt.distance(u), 1e-10);
  }
}

TEST(Zyz, HandlesDiagonalAndAntiDiagonal) {
  for (const Matrix& u : {mat::Z(), mat::S(), mat::T(), mat::X(), mat::Y(),
                          Matrix::identity(2)}) {
    const ZyzAngles a = zyz_decompose(u);
    const Matrix rebuilt =
        (mat::RZ(a.beta) * mat::RY(a.gamma) * mat::RZ(a.delta)) *
        std::polar(1.0, a.alpha);
    EXPECT_LT(rebuilt.distance(u), 1e-10);
  }
}

TEST(Zyz, ToUGateMatchesUpToGlobalPhase) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 20; ++i) {
    const Matrix u = Matrix::random_unitary(2, rng);
    double phase = 0.0;
    const Gate g = zyz_to_u(0, zyz_decompose(u), &phase);
    const Matrix rebuilt = g.matrix() * std::polar(1.0, phase);
    EXPECT_LT(rebuilt.distance(u), 1e-10);
  }
}

TEST(Zyz, RejectsNonUnitary) {
  EXPECT_THROW(zyz_decompose(Matrix(2, {1, 1, 1, 1})), Error);
  EXPECT_THROW(zyz_decompose(Matrix::identity(4)), Error);
}

// ---- cancellation ------------------------------------------------------------

TEST(CancelInverses, RemovesSelfInversePairs) {
  Circuit c(2);
  c.h(0).h(0).cx(0, 1).cx(0, 1).x(1).x(1);
  const Circuit r = cancel_adjacent_inverses(c);
  EXPECT_EQ(r.size(), 0u);
}

TEST(CancelInverses, RemovesExplicitInversePairs) {
  Circuit c(1);
  c.s(0).sdg(0).t(0).tdg(0).rz(0, 0.7).rz(0, -0.7);
  const Circuit r = cancel_adjacent_inverses(c);
  EXPECT_EQ(r.size(), 0u);
}

TEST(CancelInverses, KeepsNonCancellingGates) {
  Circuit c(2);
  c.h(0).t(0).h(0);
  const Circuit r = cancel_adjacent_inverses(c);
  EXPECT_EQ(r.size(), 3u);
}

TEST(CancelInverses, InterveningGateOnSharedQubitBlocks) {
  Circuit c(2);
  c.h(0).cx(0, 1).h(0);  // CX touches qubit 0: the two H must survive
  const Circuit r = cancel_adjacent_inverses(c);
  EXPECT_EQ(r.size(), 3u);
}

TEST(CancelInverses, IndependentQubitGatesDoNotBlock) {
  Circuit c(2);
  c.h(0).x(1).h(0);  // X(1) is unrelated: H pair cancels
  const Circuit r = cancel_adjacent_inverses(c);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.gate(0).kind, GateKind::X);
}

TEST(CancelInverses, BarrierBlocksCancellation) {
  Circuit c(1);
  c.h(0).barrier().h(0);
  const Circuit r = cancel_adjacent_inverses(c);
  EXPECT_EQ(r.size(), 3u);
}

TEST(CancelInverses, MeasureBlocksCancellation) {
  Circuit c(1);
  c.x(0).measure(0, 0).x(0);
  const Circuit r = cancel_adjacent_inverses(c);
  EXPECT_EQ(r.size(), 3u);
}

TEST(CancelInverses, DifferentOperandOrderDoesNotCancel) {
  Circuit c(2);
  c.cx(0, 1).cx(1, 0);
  const Circuit r = cancel_adjacent_inverses(c);
  EXPECT_EQ(r.size(), 2u);
}

TEST(CancelInverses, PreservesSemanticsOnRandomCircuits) {
  for (std::uint64_t seed : {1ull, 7ull, 13ull}) {
    const Circuit c = random_clifford_t(4, 60, seed);
    const Circuit r = cancel_adjacent_inverses(c);
    EXPECT_LE(r.size(), c.size());
    EXPECT_LT(unitary_error(c, r), 1e-9) << "seed " << seed;
  }
}


// ---- commutation-aware cancellation -----------------------------------------

TEST(CommuteCancel, RzThroughCxControl) {
  // RZ on a CX control commutes with the CX: the pair cancels.
  Circuit c(2);
  c.rz(0, 0.7).cx(0, 1).rz(0, -0.7);
  const Circuit r = commute_cancel(c);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.gate(0).kind, GateKind::CX);
  EXPECT_LT(unitary_error(c, r), 1e-9);
}

TEST(CommuteCancel, XThroughCxTarget) {
  Circuit c(2);
  c.x(1).cx(0, 1).x(1);
  const Circuit r = commute_cancel(c);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_LT(unitary_error(c, r), 1e-9);
}

TEST(CommuteCancel, HOnControlBlocks) {
  // H on the control does NOT commute with CX: nothing cancels.
  Circuit c(2);
  c.h(0).cx(0, 1).h(0);
  EXPECT_EQ(commute_cancel(c).size(), 3u);
}

TEST(CommuteCancel, CancelsThroughDisjointGates) {
  Circuit c(4);
  c.t(0).x(1).cz(2, 3).h(2).tdg(0);
  const Circuit r = commute_cancel(c);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_LT(unitary_error(c, r), 1e-9);
}

TEST(CommuteCancel, CzCommutesWithZRotations) {
  // CZ is diagonal: any diagonal gate on its qubits commutes through it.
  Circuit c(2);
  c.s(0).cz(0, 1).t(1).cz(0, 1).sdg(0);
  const Circuit r = commute_cancel(c);
  // The two CZ cancel through the T (diagonal), then S/Sdg cancel through
  // nothing-left-in-between.
  EXPECT_LT(r.size(), c.size());
  EXPECT_LT(unitary_error(c, r), 1e-9);
}

TEST(CommuteCancel, MeasureBlocksAcross) {
  Circuit c(1);
  c.x(0).measure(0, 0).x(0);
  EXPECT_EQ(commute_cancel(c).size(), 3u);
}

TEST(CommuteCancel, PreservesSemanticsOnRandomCircuits) {
  for (std::uint64_t seed : {4ull, 21ull, 42ull}) {
    const Circuit c = random_clifford_t(4, 80, seed);
    const Circuit r = commute_cancel(c);
    EXPECT_LE(r.size(), c.size());
    EXPECT_LT(unitary_error(c, r), 1e-9) << "seed " << seed;
  }
}

TEST(CommuteCancel, StrictlyStrongerThanAdjacentOnQaoaLayers) {
  // Adjacent RZZ layers with an interleaved diagonal layer: the plain pass
  // cannot cancel through it, the commuting pass can.
  Circuit c(3);
  c.rzz(0, 1, 0.4).rzz(1, 2, 0.9).rzz(0, 1, -0.4);
  const Circuit plain = cancel_adjacent_inverses(c);
  const Circuit strong = commute_cancel(c);
  EXPECT_EQ(plain.size(), 3u);
  EXPECT_EQ(strong.size(), 1u);
  EXPECT_LT(unitary_error(c, strong), 1e-9);
}

// ---- rotation merging --------------------------------------------------------

TEST(MergeRotations, FoldsSameAxisRuns) {
  Circuit c(1);
  c.rz(0, 0.3).rz(0, 0.4).rz(0, 0.5);
  const Circuit r = merge_rotations(c);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_NEAR(r.gate(0).params[0], 1.2, 1e-12);
}

TEST(MergeRotations, DropsZeroSums) {
  Circuit c(1);
  c.rx(0, 0.9).rx(0, -0.9);
  EXPECT_EQ(merge_rotations(c).size(), 0u);
}

TEST(MergeRotations, DoesNotMixAxes) {
  Circuit c(1);
  c.rz(0, 0.3).rx(0, 0.3);
  EXPECT_EQ(merge_rotations(c).size(), 2u);
}

TEST(MergeRotations, MergesTwoQubitRotations) {
  Circuit c(2);
  c.rzz(0, 1, 0.2).rzz(0, 1, 0.3).cp(0, 1, 0.1).cp(0, 1, 0.2);
  const Circuit r = merge_rotations(c);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NEAR(r.gate(0).params[0], 0.5, 1e-12);
  EXPECT_NEAR(r.gate(1).params[0], 0.3, 1e-12);
}

TEST(MergeRotations, InterveningGateBlocks) {
  Circuit c(2);
  c.rz(0, 0.3).cx(0, 1).rz(0, 0.4);
  EXPECT_EQ(merge_rotations(c).size(), 3u);
}

TEST(MergeRotations, PreservesSemantics) {
  Circuit c(3);
  c.rz(0, 0.1).rz(0, 0.2).rx(1, 0.5).rx(1, -0.2).rzz(1, 2, 0.7)
      .rzz(1, 2, 0.1).h(0).rz(0, 0.4);
  const Circuit r = merge_rotations(c);
  EXPECT_LT(unitary_error(c, r), 1e-10);
}

// ---- 1-qubit run merging -------------------------------------------------------

TEST(MergeRuns, CollapsesRunsIntoU) {
  Circuit c(2);
  c.h(0).t(0).s(0).sx(0).cx(0, 1).h(1).tdg(1);
  const Circuit r = merge_single_qubit_runs(c);
  // q0 run of 4 -> one U; CX; q1 run of 2 -> one U.
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.gate(0).kind, GateKind::U);
  EXPECT_EQ(r.gate(1).kind, GateKind::CX);
  EXPECT_EQ(r.gate(2).kind, GateKind::U);
  EXPECT_LT(unitary_error_up_to_phase(c, r), 1e-9);
}

TEST(MergeRuns, SingleGateRunsPassThroughUnchanged) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  const Circuit r = merge_single_qubit_runs(c);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.gate(0).kind, GateKind::H);
}

TEST(MergeRuns, PreservesSemanticsOnRandomCircuits) {
  for (std::uint64_t seed : {3ull, 11ull}) {
    const Circuit c = random_clifford_t(4, 50, seed);
    const Circuit r = merge_single_qubit_runs(c);
    EXPECT_LT(unitary_error_up_to_phase(c, r), 1e-9) << "seed " << seed;
  }
}

// ---- optimize pipeline --------------------------------------------------------

TEST(Optimize, FixpointCancelsChains) {
  // h t t† h  needs two cancel iterations (inner pair first).
  Circuit c(1);
  c.h(0).t(0).tdg(0).h(0);
  EXPECT_EQ(optimize(c).size(), 0u);
}

TEST(Optimize, CircuitComposedWithInverseVanishes) {
  Circuit c(3);
  c.h(0).cx(0, 1).t(1).rzz(1, 2, 0.4).swap(0, 2);
  Circuit round = c;
  round.compose(c.inverse());
  const Circuit r = optimize(round);
  EXPECT_EQ(r.size(), 0u);
}

TEST(Optimize, ReducesRedundantLibraryCompositions) {
  Circuit c = qft(5);
  c.compose(inverse_qft(5));
  const Circuit r = optimize(c);
  EXPECT_LT(r.size(), c.size() / 4);
  EXPECT_LT(unitary_error(c, r), 1e-9);
}

// ---- basis decomposition --------------------------------------------------------

class DecomposeGateTest : public ::testing::TestWithParam<Gate> {};

TEST_P(DecomposeGateTest, EquivalentOverCxBasis) {
  const Gate g = GetParam();
  unsigned n = 0;
  for (unsigned q : g.qubits) n = std::max(n, q + 1);
  Circuit c(n);
  c.append(g);
  const Circuit d = decompose_to_cx_basis(c);
  for (const auto& dg : d.gates()) {
    EXPECT_TRUE(dg.kind == GateKind::CX || dg.num_qubits() == 1)
        << dg.to_string();
  }
  EXPECT_LT(unitary_error(c, d), 1e-9) << g.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DecomposeGateTest,
    ::testing::Values(
        Gate::swap(0, 1), Gate::swap(1, 0), Gate::iswap(0, 1),
        Gate::cz(0, 1), Gate::cy(0, 1), Gate::ch(0, 1), Gate::cp(0, 1, 0.7),
        Gate::crx(0, 1, 0.5), Gate::cry(1, 0, 0.6), Gate::crz(0, 1, 0.8),
        Gate::rxx(0, 1, 0.4), Gate::ryy(0, 1, 0.5), Gate::rzz(0, 1, 0.6),
        Gate::ccx(0, 1, 2), Gate::ccx(2, 0, 1), Gate::ccz(0, 1, 2),
        Gate::cswap(0, 1, 2), Gate::cswap(2, 1, 0),
        Gate::mcx({0, 1, 2}, 3), Gate::mcx({0, 1, 2, 3}, 4),
        Gate::mcp({0, 1}, 2, 0.9), Gate::mcp({0, 1, 2}, 3, 1.3)));

TEST(Decompose, WholeCircuitEquivalence) {
  Circuit c(4);
  c.h(0).cz(0, 1).ccx(0, 1, 2).swap(2, 3).cp(1, 3, 0.5).rzz(0, 2, 0.3)
      .iswap(1, 2).cswap(0, 1, 3);
  const Circuit d = decompose_to_cx_basis(c);
  EXPECT_LT(unitary_error(c, d), 1e-9);
  EXPECT_GT(d.size(), c.size());
}

TEST(Decompose, GroverSurvivesDecomposition) {
  const Circuit g = grover(4, 9);
  const Circuit d = decompose_to_cx_basis(g);
  const auto state = dense::run(d);
  EXPECT_GT(std::norm(state[9]), 0.9);
}

TEST(Decompose, RejectsDensePayloads) {
  Xoshiro256 rng(1);
  Circuit c(2);
  c.append(Gate::u2q(0, 1, Matrix::random_unitary(4, rng)));
  EXPECT_THROW(decompose_to_cx_basis(c), Error);
}

TEST(Decompose, MeasurePassesThrough) {
  Circuit c(3);
  c.h(0).measure(0, 0).barrier().reset(1);
  const Circuit d = decompose_to_cx_basis(c);
  EXPECT_EQ(d.size(), 4u);
}

TEST(Decompose, ThenOptimizeShrinks) {
  Circuit c(3);
  c.ccx(0, 1, 2);
  c.ccx(0, 1, 2);  // CCX twice = identity: decompose then optimize shrinks
  const Circuit d = decompose_to_cx_basis(c);
  const Circuit o = optimize(d);
  EXPECT_LT(o.size(), d.size());
  EXPECT_LT(dense::circuit_unitary(o).distance(Matrix::identity(8)), 1e-9);
}

}  // namespace
}  // namespace svsim::qc
