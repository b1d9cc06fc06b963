// Kernel correctness: every optimized kernel is cross-checked against the
// independent dense reference (qc::dense) on random states, sweeping target
// and control positions across the register (low / middle / high bits hit
// the distinct code paths: contiguous runs, strided pairs, line-granular
// subsets).
#include "sv/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "qc/dense.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"

namespace svsim::sv {
namespace {

using qc::Gate;
using qc::Matrix;

/// Fills both an sv register and a dense vector with the same random state.
void random_state(unsigned n, StateVector<double>& sv,
                  std::vector<qc::cplx>& dense_state, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  dense_state.resize(pow2(n));
  double norm = 0.0;
  for (auto& a : dense_state) {
    a = {rng.normal(), rng.normal()};
    norm += std::norm(a);
  }
  const double inv = 1.0 / std::sqrt(norm);
  for (auto& a : dense_state) a *= inv;
  sv.set_state(dense_state);
}

/// Applies `gate` via the optimized dispatcher and via the dense reference,
/// and checks the states agree.
void check_gate(const Gate& gate, unsigned n, std::uint64_t seed,
                double tol = 1e-11) {
  StateVector<double> sv(n);
  std::vector<qc::cplx> ref;
  random_state(n, sv, ref, seed);

  apply_gate(sv, gate);
  qc::dense::apply_gate(ref, gate, n);

  const auto got = sv.to_vector();
  double dist = 0.0;
  for (std::uint64_t i = 0; i < ref.size(); ++i)
    dist = std::max(dist, std::abs(got[i] - ref[i]));
  EXPECT_LT(dist, tol) << gate.to_string() << " on n=" << n;
}

// ---- parameterized sweep over target qubit -------------------------------

class SingleQubitSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SingleQubitSweep, AllOneQubitKindsMatchReference) {
  const unsigned n = 9;
  const unsigned t = GetParam();
  std::uint64_t seed = 100 + t;
  check_gate(Gate::x(t), n, seed++);
  check_gate(Gate::y(t), n, seed++);
  check_gate(Gate::z(t), n, seed++);
  check_gate(Gate::h(t), n, seed++);
  check_gate(Gate::s(t), n, seed++);
  check_gate(Gate::sdg(t), n, seed++);
  check_gate(Gate::t(t), n, seed++);
  check_gate(Gate::tdg(t), n, seed++);
  check_gate(Gate::sx(t), n, seed++);
  check_gate(Gate::sxdg(t), n, seed++);
  check_gate(Gate::rx(t, 0.37), n, seed++);
  check_gate(Gate::ry(t, 0.58), n, seed++);
  check_gate(Gate::rz(t, 1.13), n, seed++);
  check_gate(Gate::p(t, 2.11), n, seed++);
  check_gate(Gate::u(t, 0.3, 0.7, 1.9), n, seed++);
}

INSTANTIATE_TEST_SUITE_P(TargetPositions, SingleQubitSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 5u, 7u, 8u));

// ---- parameterized sweep over (control, target) pairs --------------------

class TwoQubitSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(TwoQubitSweep, AllTwoQubitKindsMatchReference) {
  const unsigned n = 8;
  const auto [a, b] = GetParam();
  std::uint64_t seed = 500 + 10 * a + b;
  check_gate(Gate::cx(a, b), n, seed++);
  check_gate(Gate::cy(a, b), n, seed++);
  check_gate(Gate::cz(a, b), n, seed++);
  check_gate(Gate::ch(a, b), n, seed++);
  check_gate(Gate::cp(a, b, 0.77), n, seed++);
  check_gate(Gate::crx(a, b, 0.21), n, seed++);
  check_gate(Gate::cry(a, b, 0.43), n, seed++);
  check_gate(Gate::crz(a, b, 0.65), n, seed++);
  check_gate(Gate::swap(a, b), n, seed++);
  check_gate(Gate::iswap(a, b), n, seed++);
  check_gate(Gate::rxx(a, b, 0.5), n, seed++);
  check_gate(Gate::ryy(a, b, 0.6), n, seed++);
  check_gate(Gate::rzz(a, b, 0.7), n, seed++);
  Xoshiro256 mrng(seed);
  check_gate(Gate::u2q(a, b, Matrix::random_unitary(4, mrng)), n, seed);
}

INSTANTIATE_TEST_SUITE_P(
    QubitPairs, TwoQubitSweep,
    ::testing::Values(std::make_tuple(0u, 1u), std::make_tuple(1u, 0u),
                      std::make_tuple(0u, 7u), std::make_tuple(7u, 0u),
                      std::make_tuple(3u, 4u), std::make_tuple(6u, 2u),
                      std::make_tuple(5u, 7u)));

// ---- three-qubit and multi-controlled -------------------------------------

TEST(ThreeQubitKernels, MatchReference) {
  const unsigned n = 7;
  std::uint64_t seed = 900;
  check_gate(Gate::ccx(0, 1, 2), n, seed++);
  check_gate(Gate::ccx(4, 2, 6), n, seed++);
  check_gate(Gate::ccx(6, 5, 0), n, seed++);
  check_gate(Gate::ccz(1, 3, 5), n, seed++);
  check_gate(Gate::cswap(2, 0, 6), n, seed++);
  check_gate(Gate::cswap(6, 1, 2), n, seed++);
}

TEST(MultiControlledKernels, MatchReference) {
  const unsigned n = 8;
  std::uint64_t seed = 950;
  check_gate(Gate::mcx({0, 1, 2}, 3), n, seed++);
  check_gate(Gate::mcx({5, 6, 7}, 0), n, seed++);
  check_gate(Gate::mcx({0, 2, 4, 6}, 7), n, seed++);
  check_gate(Gate::mcp({1, 2}, 3, 0.9), n, seed++);
  check_gate(Gate::mcp({4, 5, 6, 7}, 0, 1.7), n, seed++);
}

// ---- dense k-qubit and diagonal kernels ------------------------------------

class FusedWidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedWidthSweep, DenseUnitaryMatchesReference) {
  const unsigned n = 9;
  const unsigned k = GetParam();
  Xoshiro256 rng(1000 + k);
  // Random distinct qubit subset, deliberately unsorted.
  std::vector<unsigned> qs;
  while (qs.size() < k) {
    const auto q = static_cast<unsigned>(rng.uniform_int(n));
    if (std::find(qs.begin(), qs.end(), q) == qs.end()) qs.push_back(q);
  }
  check_gate(Gate::unitary(qs, Matrix::random_unitary(pow2(k), rng)), n,
             2000 + k);
}

INSTANTIATE_TEST_SUITE_P(Widths, FusedWidthSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(DiagonalKernels, DiagKMatchesReference) {
  const unsigned n = 8;
  Xoshiro256 rng(31);
  for (const std::vector<unsigned> qs :
       {std::vector<unsigned>{2}, {0, 5}, {7, 1, 4}}) {
    std::vector<qc::cplx> d(pow2(static_cast<unsigned>(qs.size())));
    for (auto& v : d) v = std::polar(1.0, rng.uniform(0.0, 6.28));
    check_gate(Gate::diag(qs, d), n, 41);
  }
}

// ---- structural invariants ---------------------------------------------------

TEST(KernelInvariants, NormPreservedByLongRandomCircuit) {
  const unsigned n = 10;
  StateVector<double> sv(n);
  Xoshiro256 rng(77);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<unsigned>(rng.uniform_int(n));
    auto b = static_cast<unsigned>(rng.uniform_int(n - 1));
    if (b >= a) ++b;
    switch (rng.uniform_int(4)) {
      case 0: apply_gate(sv, Gate::h(a)); break;
      case 1: apply_gate(sv, Gate::t(a)); break;
      case 2: apply_gate(sv, Gate::cx(a, b)); break;
      case 3:
        apply_gate(sv, Gate::u2q(a, b, Matrix::random_unitary(4, rng)));
        break;
    }
  }
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-10);
}

TEST(KernelInvariants, HTwiceIsIdentity) {
  const unsigned n = 6;
  for (unsigned t = 0; t < n; ++t) {
    StateVector<double> sv(n);
    std::vector<qc::cplx> ref;
    random_state(n, sv, ref, 3000 + t);
    apply_gate(sv, Gate::h(t));
    apply_gate(sv, Gate::h(t));
    const auto got = sv.to_vector();
    for (std::uint64_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(std::abs(got[i] - ref[i]), 0.0, 1e-12);
  }
}

TEST(KernelInvariants, CxDecomposesSwap) {
  // SWAP = CX(a,b) CX(b,a) CX(a,b).
  const unsigned n = 5, a = 1, b = 3;
  StateVector<double> sv(n);
  std::vector<qc::cplx> ref;
  random_state(n, sv, ref, 4000);
  apply_gate(sv, Gate::cx(a, b));
  apply_gate(sv, Gate::cx(b, a));
  apply_gate(sv, Gate::cx(a, b));
  qc::dense::apply_gate(ref, Gate::swap(a, b), n);
  const auto got = sv.to_vector();
  for (std::uint64_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(std::abs(got[i] - ref[i]), 0.0, 1e-12);
}

TEST(KernelInvariants, FloatKernelsTrackDoubleKernels) {
  const unsigned n = 8;
  StateVector<float> svf(n);
  StateVector<double> svd(n);
  Xoshiro256 rng(88);
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<unsigned>(rng.uniform_int(n));
    auto b = static_cast<unsigned>(rng.uniform_int(n - 1));
    if (b >= a) ++b;
    const Gate g =
        (i % 3 == 0) ? Gate::cx(a, b)
                     : (i % 3 == 1 ? Gate::h(a) : Gate::rz(a, 0.3));
    apply_gate(svf, g);
    apply_gate(svd, g);
  }
  const auto f = svf.to_vector();
  const auto d = svd.to_vector();
  for (std::uint64_t i = 0; i < f.size(); ++i)
    EXPECT_NEAR(std::abs(f[i] - d[i]), 0.0, 1e-5);
}

TEST(KernelInvariants, MultithreadedMatchesSingleThreaded) {
  // n = 16 (1 MiB at f64) forks on the 4-thread pool: apply_prepared then
  // splits each counter range across workers.
  for (const unsigned n : {10u, 16u}) {
    ThreadPool pool1(1), pool4(4);
    StateVector<double> a(n, &pool1), b(n, &pool4);
    std::vector<qc::cplx> init;
    {
      StateVector<double> tmp(n, &pool1);
      random_state(n, tmp, init, 555);
    }
    a.set_state(init);
    b.set_state(init);
    for (unsigned t = 0; t < n; ++t) {
      apply_gate(a, Gate::h(t));
      apply_gate(b, Gate::h(t));
      apply_gate(a, Gate::cx(t, (t + 1) % n));
      apply_gate(b, Gate::cx(t, (t + 1) % n));
    }
    if (n == 16) EXPECT_GT(pool4.stats().parallel_regions, 0u);
    const auto va = a.to_vector();
    const auto vb = b.to_vector();
    for (std::uint64_t i = 0; i < va.size(); ++i)
      EXPECT_EQ(va[i], vb[i]) << "thread count must not change results at all";
  }
}

// ---- kernel-table dispatch (sv/kernels.hpp) -------------------------------

TEST(BlockKernels, ClassifyGateCoversEveryKind) {
  const struct {
    Gate g;
    KernelClass want;
  } cases[] = {
      {Gate::i(0), KernelClass::Nop},
      {Gate::barrier(), KernelClass::Nop},
      {Gate::x(1), KernelClass::PermX},
      {Gate::y(0), KernelClass::PermY},
      {Gate::h(0), KernelClass::Hadamard},
      {Gate::z(0), KernelClass::Diag1},
      {Gate::s(0), KernelClass::Diag1},
      {Gate::tdg(0), KernelClass::Diag1},
      {Gate::p(0, 0.2), KernelClass::Diag1},
      {Gate::rz(0, 0.3), KernelClass::Diag1},
      {Gate::sx(0), KernelClass::Matrix1},
      {Gate::rx(0, 0.2), KernelClass::Matrix1},
      {Gate::u(0, 0.1, 0.2, 0.3), KernelClass::Matrix1},
      {Gate::cx(0, 1), KernelClass::Mcx},
      {Gate::ccx(0, 1, 2), KernelClass::Mcx},
      {Gate::mcx({0, 1, 2}, 3), KernelClass::Mcx},
      {Gate::cz(0, 1), KernelClass::McPhase},
      {Gate::cp(0, 1, 0.2), KernelClass::McPhase},
      {Gate::ccz(0, 1, 2), KernelClass::McPhase},
      {Gate::mcp({0, 1}, 2, 0.4), KernelClass::McPhase},
      {Gate::crz(0, 1, 0.3), KernelClass::DiagK},
      {Gate::cy(0, 1), KernelClass::CtrlMatrix1},
      {Gate::ch(0, 1), KernelClass::CtrlMatrix1},
      {Gate::crx(0, 1, 0.3), KernelClass::CtrlMatrix1},
      {Gate::cry(0, 1, 0.3), KernelClass::CtrlMatrix1},
      {Gate::swap(0, 1), KernelClass::PermSwap},
      {Gate::rzz(0, 1, 0.4), KernelClass::DiagK},
      {Gate::iswap(0, 1), KernelClass::Matrix2},
      {Gate::rxx(0, 1, 0.4), KernelClass::Matrix2},
      {Gate::cswap(0, 1, 2), KernelClass::MatrixK},
      {Gate::diag({0, 1}, {1.0, 1.0, 1.0, qc::cplx(0.0, 1.0)}),
       KernelClass::DiagK},
      {Gate::unitary({0}, Gate::h(0).matrix()), KernelClass::Matrix1},
      {Gate::unitary({0, 1}, Gate::cx(0, 1).matrix()), KernelClass::Matrix2},
      {Gate::unitary({0, 1, 2}, Gate::ccx(0, 1, 2).matrix()),
       KernelClass::MatrixK},
      {Gate::measure(0, 0), KernelClass::Unsupported},
      {Gate::reset(0), KernelClass::Unsupported},
  };
  for (const auto& c : cases)
    EXPECT_EQ(classify_gate(c.g), c.want) << c.g.to_string();
}

TEST(BlockKernels, DispatchTableIsFullyPopulated) {
  const auto& table = kernel_table<double>();
  ASSERT_EQ(table.size(), kNumKernelClasses);
  for (std::size_t i = 0; i < kNumKernelClasses; ++i) {
    EXPECT_NE(table[i], nullptr) << "class index " << i;
    EXPECT_STRNE(kernel_class_name(static_cast<KernelClass>(i)), "?");
  }
}

TEST(BlockKernels, PrepareGateRejectsNonUnitary) {
  EXPECT_THROW(prepare_gate<double>(Gate::measure(0, 0)), Error);
}

TEST(BlockKernels, BlockApplicationMatchesWholeStateKernels) {
  // With block_qubits == n the register is one block: one table call over
  // the whole counter range must reproduce the dense reference.
  const unsigned n = 5;
  const Gate gates[] = {
      Gate::x(2),        Gate::y(1),
      Gate::h(0),        Gate::z(3),
      Gate::t(4),        Gate::rz(2, 0.7),
      Gate::sx(1),       Gate::u(3, 0.1, 0.2, 0.3),
      Gate::cx(0, 4),    Gate::ccx(1, 3, 0),
      Gate::cz(2, 4),    Gate::cp(0, 3, 0.5),
      Gate::ccz(0, 1, 2), Gate::crz(4, 1, 0.6),
      Gate::cy(3, 0),    Gate::ch(1, 4),
      Gate::crx(2, 0, 0.4), Gate::swap(1, 3),
      Gate::rzz(0, 2, 0.8), Gate::iswap(2, 4),
      Gate::rxx(0, 1, 0.3), Gate::cswap(4, 0, 2),
      Gate::diag({1, 3}, {1.0, qc::cplx(0.0, 1.0), -1.0, 1.0}),
      Gate::unitary({0, 2, 4}, Gate::ccx(0, 1, 2).matrix()),
  };
  for (const Gate& g : gates) {
    StateVector<double> via_block(n);
    std::vector<qc::cplx> want;
    random_state(n, via_block, want, 0xb10c + g.qubits.size());

    const PreparedGate<double> pg = prepare_gate<double>(g);
    apply_range(via_block.data(), pg, 0, pow2(n - pg.counter_bits));
    qc::dense::apply_gate(want, g, n);

    const auto got = via_block.to_vector();
    double dist = 0.0;
    for (std::uint64_t i = 0; i < want.size(); ++i)
      dist = std::max(dist, std::abs(got[i] - want[i]));
    EXPECT_LT(dist, 1e-13) << g.to_string();
  }
}

TEST(BlockKernels, SubBlockApplicationActsIndependentlyPerBlock) {
  // Applying a prepared gate to each aligned 2^b block — the counter range
  // [blk * 2^(b-k), (blk + 1) * 2^(b-k)) — must equal the whole-state gate
  // when all operands are below b.
  const unsigned n = 6, b = 3;
  const Gate g = Gate::cx(0, 2);
  StateVector<double> blocked(n), whole(n);
  std::vector<qc::cplx> init;
  random_state(n, blocked, init, 99);
  whole.set_state(init);

  const PreparedGate<double> pg = prepare_gate<double>(g);
  const unsigned shift = b - pg.counter_bits;
  for (std::uint64_t blk = 0; blk < pow2(n - b); ++blk)
    apply_range(blocked.data(), pg, blk << shift, (blk + 1) << shift);
  apply_gate(whole, g);

  const auto got = blocked.to_vector();
  const auto want = whole.to_vector();
  for (std::uint64_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(BlockKernels, CounterSpaceOfEachClass) {
  const struct {
    Gate g;
    unsigned counter_bits;
    unsigned counter_amps;
  } cases[] = {
      {Gate::h(3), 1, 2},           {Gate::x(0), 1, 2},
      {Gate::rz(2, 0.3), 1, 2},     {Gate::cx(0, 4), 2, 2},
      {Gate::ccx(1, 2, 3), 3, 2},   {Gate::crz(0, 1, 0.2), 0, 1},
      {Gate::ccz(0, 1, 2), 3, 1},   {Gate::swap(1, 5), 2, 2},
      {Gate::rxx(0, 1, 0.3), 2, 4}, {Gate::rzz(0, 1, 0.4), 0, 1},
      {Gate::diag({0, 2}, {1.0, 1.0, 1.0, -1.0}), 0, 1},
      {Gate::cswap(0, 1, 2), 3, 8},
  };
  for (const auto& c : cases) {
    const PreparedGate<double> pg = prepare_gate<double>(c.g);
    EXPECT_EQ(pg.counter_bits, c.counter_bits) << c.g.to_string();
    EXPECT_EQ(pg.counter_amps, c.counter_amps) << c.g.to_string();
  }
}

TEST(KernelVariant, PairwiseMatchesRunBlocked) {
  const unsigned n = 10;
  Xoshiro256 rng(3);
  const qc::Matrix u = qc::Matrix::random_unitary(2, rng);
  for (unsigned t = 0; t < n; t += 3) {
    StateVector<double> a(n), b(n);
    Simulator<double> prep;
    // Identical random-ish states.
    for (unsigned q = 0; q < n; ++q) {
      apply_gate(a, qc::Gate::h(q));
      apply_gate(b, qc::Gate::h(q));
      apply_gate(a, qc::Gate::t(q));
      apply_gate(b, qc::Gate::t(q));
    }
    apply_gate(a, qc::Gate::unitary({t}, u));
    apply_matrix1_pairwise(b.data(), n, t, u, b.pool());
    // The run-blocked table entry may fuse multiplies (FMA) where the
    // pairwise reference does not; allow FP slack.
    const auto va = a.to_vector();
    const auto vb = b.to_vector();
    double dist = 0.0;
    for (std::size_t i = 0; i < va.size(); ++i)
      dist = std::max(dist, std::abs(va[i] - vb[i]));
    EXPECT_LT(dist, 1e-12) << "target " << t;
  }
}

}  // namespace
}  // namespace svsim::sv
