// SIMD backend equivalence: every compiled-and-available backend must
// reproduce the portable scalar reference table (sv::kernel_table) on
// random states, for every KernelClass, at both precisions, within the
// documented ULP bounds (sv/simd/simd.hpp): 1e-13 absolute on normalized
// f64 states, 1e-5 on f32; bit-exact for permutation and Hadamard entries.
// The range entry point is checked per backend as well: whole-state
// applications against the dense reference, and bit-identity of the result
// across pool sizes and between a blocked sweep and the whole range.
// Backends the binary lacks (e.g. NEON on x86) or the CPU cannot run are
// skipped, not failed, so the suite is green on every host.
#include "sv/simd/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "qc/dense.hpp"
#include "qc/gate.hpp"
#include "qc/matrix.hpp"
#include "sv/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace svsim::sv {
namespace {

using qc::Gate;
using qc::Matrix;

std::size_t idx(KernelClass c) { return static_cast<std::size_t>(c); }

const simd::BackendInfo* backend_info(simd::Isa isa) {
  static const std::vector<simd::BackendInfo> all = simd::backends();
  for (const auto& b : all)
    if (b.isa == isa) return &b;
  return nullptr;
}

/// Normalized random block of 2^n amplitudes.
template <typename T>
std::vector<std::complex<T>> random_block(unsigned n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::complex<T>> v(pow2(n));
  double norm = 0.0;
  for (auto& a : v) {
    const double re = rng.normal(), im = rng.normal();
    a = {static_cast<T>(re), static_cast<T>(im)};
    norm += re * re + im * im;
  }
  const T inv = static_cast<T>(1.0 / std::sqrt(norm));
  for (auto& a : v) a *= inv;
  return v;
}

std::vector<unsigned> distinct_qubits(unsigned n, unsigned k,
                                      Xoshiro256& rng) {
  std::vector<unsigned> qs;
  while (qs.size() < k) {
    const auto q = static_cast<unsigned>(rng.uniform_int(n));
    if (std::find(qs.begin(), qs.end(), q) == qs.end()) qs.push_back(q);
  }
  return qs;
}

/// One representative gate per applicable KernelClass at random operand
/// positions (Unsupported has no applicable gate; 3-operand classes need
/// n >= 3). Together with the per-target sweeps below this exercises every
/// dispatch-table entry a backend can override.
std::vector<Gate> representative_gates(unsigned n, Xoshiro256& rng) {
  const auto q2 = distinct_qubits(n, 2, rng);
  std::vector<Gate> gates = {
      Gate::i(q2[0]),                       // Nop
      Gate::x(q2[0]),                       // PermX
      Gate::y(q2[1]),                       // PermY
      Gate::swap(q2[0], q2[1]),             // PermSwap
      Gate::cx(q2[0], q2[1]),               // Mcx
      Gate::h(q2[0]),                       // Hadamard
      Gate::rz(q2[1], 0.7),                 // Diag1
      Gate::s(q2[0]),                       // Diag1 (skip_lower path)
      Gate::crz(q2[0], q2[1], 0.6),         // DiagK
      Gate::cp(q2[0], q2[1], 0.5),          // McPhase
      Gate::rzz(q2[0], q2[1], 0.8),         // DiagK
      Gate::u(q2[0], 0.3, 0.7, 1.9),        // Matrix1
      Gate::cry(q2[0], q2[1], 0.4),         // CtrlMatrix1
      Gate::rxx(q2[0], q2[1], 0.3),         // Matrix2
      Gate::u2q(q2[0], q2[1], Matrix::random_unitary(4, rng)),  // Matrix2
      Gate::diag({q2[0], q2[1]},
                 {std::polar(1.0, 0.3), std::polar(1.0, 1.1),
                  std::polar(1.0, 2.2), std::polar(1.0, 4.0)}),  // DiagK
  };
  if (n >= 3) {
    const auto q3 = distinct_qubits(n, 3, rng);
    gates.push_back(Gate::ccx(q3[0], q3[1], q3[2]));    // Mcx, 2 controls
    gates.push_back(Gate::cswap(q3[0], q3[1], q3[2]));  // MatrixK
    gates.push_back(
        Gate::unitary(q3, Matrix::random_unitary(8, rng)));  // MatrixK
  }
  return gates;
}

/// Applies `g` through the active table and the scalar reference on the
/// same random block; returns the max absolute amplitude difference.
template <typename T>
double divergence(const Gate& g, unsigned n, std::uint64_t seed) {
  const PreparedGate<T> pg = prepare_gate<T>(g);
  const auto& active = active_kernel_table<T>();
  const auto& scalar = kernel_table<T>();
  std::vector<std::complex<T>> a = random_block<T>(n, seed);
  std::vector<std::complex<T>> b = a;
  const std::uint64_t counters = pow2(n - pg.counter_bits);
  active[idx(pg.cls)](a.data(), pg, 0, counters);
  scalar[idx(pg.cls)](b.data(), pg, 0, counters);
  double dist = 0.0;
  for (std::uint64_t i = 0; i < a.size(); ++i)
    dist = std::max(dist, static_cast<double>(std::abs(a[i] - b[i])));
  return dist;
}

template <typename T>
void check_backend_vs_scalar(double tol) {
  for (unsigned n = 2; n <= 10; ++n) {
    Xoshiro256 rng(0x51d0 + n);
    for (const Gate& g : representative_gates(n, rng))
      EXPECT_LE(divergence<T>(g, n, 7700 + n), tol)
          << g.to_string() << " on n=" << n;
    // Vectorized classes at every target: the low targets (t < lanes) take
    // the in-register swizzle paths, high targets the unit-stride paths.
    for (unsigned t = 0; t < n; ++t) {
      EXPECT_EQ(divergence<T>(Gate::h(t), n, 8800 + t), 0.0)
          << "Hadamard must stay bit-exact at t=" << t << " n=" << n;
      EXPECT_LE(divergence<T>(Gate::rz(t, 1.13), n, 8900 + t), tol)
          << "rz t=" << t << " n=" << n;
      EXPECT_LE(divergence<T>(Gate::u(t, 0.3, 0.7, 1.9), n, 9000 + t), tol)
          << "u t=" << t << " n=" << n;
    }
  }
}

// ---- the range entry point -------------------------------------------------

constexpr unsigned kRangeWidths[] = {3, 8, 14, 16};

/// representative_gates plus every class again on the top qubits: the top
/// qubit as target and as control, and operand sets above n - 3, where a
/// block is the whole state and the vector paths run with the fewest
/// counters.
std::vector<Gate> range_gates(unsigned n, Xoshiro256& rng) {
  std::vector<Gate> gates = representative_gates(n, rng);
  const unsigned a = n - 1, b = n - 2, c = n - 3;
  const std::vector<Gate> top = {
      Gate::i(a),
      Gate::x(a),
      Gate::y(a),
      Gate::swap(b, a),
      Gate::cx(a, b),
      Gate::ccx(c, b, a),
      Gate::h(a),
      Gate::t(a),
      Gate::rz(a, 0.9),
      Gate::crz(a, c, 0.7),
      Gate::cp(c, a, 0.4),
      Gate::rzz(a, c, 0.5),
      Gate::diag({a, b, c}, {std::polar(1.0, 0.1), std::polar(1.0, 0.7),
                             std::polar(1.0, 1.3), std::polar(1.0, 1.9),
                             std::polar(1.0, 2.5), std::polar(1.0, 3.1),
                             std::polar(1.0, 3.7), std::polar(1.0, 4.3)}),
      Gate::u(a, 0.2, 0.5, 0.8),
      Gate::cry(b, a, 0.3),
      Gate::u2q(a, c, Matrix::random_unitary(4, rng)),
      Gate::u2q(b, a, Matrix::random_unitary(4, rng)),
      Gate::cswap(a, c, b),
      Gate::unitary({b, a, c}, Matrix::random_unitary(8, rng)),
  };
  gates.insert(gates.end(), top.begin(), top.end());
  return gates;
}

/// A normalized random state of width n on `pool`.
template <typename T>
StateVector<T> random_state(unsigned n, ThreadPool& pool, std::uint64_t seed) {
  StateVector<T> s(n, &pool);
  const std::vector<std::complex<T>> amps = random_block<T>(n, seed);
  std::vector<std::complex<double>> wide(amps.begin(), amps.end());
  s.set_state(wide);
  return s;
}

/// Amplitudes where `a` and `b` differ in any bit pattern that compares
/// unequal.
template <typename T>
std::uint64_t mismatches(const StateVector<T>& a, const StateVector<T>& b) {
  std::uint64_t bad = 0;
  for (std::uint64_t i = 0; i < a.size(); ++i)
    bad += a.data()[i] != b.data()[i] ? 1 : 0;
  return bad;
}

template <typename T>
void check_range_vs_dense(double tol) {
  ThreadPool pool(1);
  for (unsigned n : kRangeWidths) {
    Xoshiro256 rng(0x7a49 + n);
    std::uint64_t seed = 0x9000 + n;
    for (const Gate& g : range_gates(n, rng)) {
      StateVector<T> state = random_state<T>(n, pool, ++seed);
      std::vector<qc::cplx> want = state.to_vector();
      apply_gate(state, g);
      qc::dense::apply_gate(want, g, n);
      const std::vector<qc::cplx> got = state.to_vector();
      double dist = 0.0;
      for (std::uint64_t i = 0; i < want.size(); ++i)
        dist = std::max(dist, std::abs(got[i] - want[i]));
      EXPECT_LE(dist, tol) << g.to_string() << " on n=" << n;
    }
  }
}

template <typename T>
void check_range_split_invariance() {
  ThreadPool pool1(1), pool2(2), pool3(3), pool4(4);
  ThreadPool* const pools[] = {&pool2, &pool3, &pool4};
  for (unsigned n : kRangeWidths) {
    Xoshiro256 rng(0x5b1d + n);
    std::uint64_t seed = 0xa000 + n;
    for (const Gate& g : range_gates(n, rng)) {
      ++seed;
      StateVector<T> want = random_state<T>(n, pool1, seed);
      apply_gate(want, g);
      for (ThreadPool* pool : pools) {
        StateVector<T> got = random_state<T>(n, *pool, seed);
        apply_gate(got, g);
        EXPECT_EQ(mismatches(got, want), 0u)
            << g.to_string() << " n=" << n << " threads="
            << pool->num_threads();
      }
      // Blocked sweeps at the smallest legal block and at a mid-size one:
      // each block is a counter range of the same entry.
      const unsigned smallest = std::max(1u, g.max_qubit() + 1);
      for (unsigned b : {smallest, std::max(smallest, n - 2)}) {
        StateVector<T> got = random_state<T>(n, pool4, seed);
        run_sweep(got, &g, 1, b);
        EXPECT_EQ(mismatches(got, want), 0u)
            << g.to_string() << " n=" << n << " block_qubits=" << b;
      }
    }
  }
  // The widest input really splits its ranges across the 4-thread pool.
  pool4.reset_stats();
  StateVector<T> wide = random_state<T>(16, pool4, 1);
  apply_gate(wide, Gate::h(15));
  EXPECT_GT(pool4.stats().parallel_regions, 0u);
}

/// Selects the parameterized backend for the test body (skipping when it
/// is unavailable on this build/CPU) and restores the previous one after.
class BackendEquivalence : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    prev_ = simd::active_backend().isa;
    const simd::BackendInfo* b = backend_info(GetParam());
    ASSERT_NE(b, nullptr);
    if (!b->available)
      GTEST_SKIP() << simd::isa_name(GetParam())
                   << " backend not available on this build/CPU";
    ASSERT_TRUE(simd::select_backend(GetParam()));
  }
  void TearDown() override { simd::select_backend(prev_); }

 private:
  simd::Isa prev_ = simd::Isa::Scalar;
};

TEST_P(BackendEquivalence, MatchesScalarReferenceF64) {
  check_backend_vs_scalar<double>(1e-13);
}

TEST_P(BackendEquivalence, MatchesScalarReferenceF32) {
  check_backend_vs_scalar<float>(1e-5);
}

TEST_P(BackendEquivalence, RangeEntryMatchesDenseReferenceF64) {
  check_range_vs_dense<double>(1e-13);
}

TEST_P(BackendEquivalence, RangeEntryMatchesDenseReferenceF32) {
  check_range_vs_dense<float>(1e-5);
}

TEST_P(BackendEquivalence, RangeSplitIsBitIdenticalF64) {
  check_range_split_invariance<double>();
}

TEST_P(BackendEquivalence, RangeSplitIsBitIdenticalF32) {
  check_range_split_invariance<float>();
}

TEST_P(BackendEquivalence, NonOverriddenEntriesAreTheScalarReference) {
  // Classes a backend does not hand-vectorize must dispatch to the exact
  // scalar function pointers — Unsupported among them, so the blocked
  // engine's error path is backend-independent.
  const auto& active_d = active_kernel_table<double>();
  const auto& scalar_d = kernel_table<double>();
  EXPECT_EQ(active_d[idx(KernelClass::Unsupported)],
            scalar_d[idx(KernelClass::Unsupported)]);
  const std::size_t overridden = simd::active_backend().overridden_classes;
  std::size_t differing = 0;
  for (std::size_t i = 0; i < kNumKernelClasses; ++i)
    differing += active_d[i] != scalar_d[i] ? 1 : 0;
  EXPECT_LE(differing, overridden);
}

INSTANTIATE_TEST_SUITE_P(AllIsas, BackendEquivalence,
                         ::testing::Values(simd::Isa::Scalar, simd::Isa::Neon,
                                           simd::Isa::Avx2, simd::Isa::Sve),
                         [](const auto& info) {
                           return std::string(simd::isa_name(info.param));
                         });

// ---- registry behavior ----------------------------------------------------

TEST(SimdRegistry, EnumeratesEveryIsaOnce) {
  const auto all = simd::backends();
  ASSERT_EQ(all.size(), simd::kNumIsas);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(static_cast<std::size_t>(all[i].isa), i);
  // Scalar has no hardware prerequisite.
  EXPECT_TRUE(backend_info(simd::Isa::Scalar)->available);
}

TEST(SimdRegistry, RejectsUnknownAndUnavailableSelection) {
  const simd::Isa prev = simd::active_backend().isa;
  EXPECT_FALSE(simd::select_backend("bogus"));
  EXPECT_EQ(simd::active_backend().isa, prev)
      << "a failed selection must not change the active backend";
  for (const auto& b : simd::backends())
    if (!b.available) EXPECT_FALSE(simd::select_backend(b.isa));
  EXPECT_EQ(simd::active_backend().isa, prev);
}

TEST(SimdRegistry, EnvOverrideRoundTrip) {
  const simd::Isa prev = simd::active_backend().isa;
  for (const auto& b : simd::backends()) {
    if (!b.available) continue;
    ASSERT_EQ(::setenv("SVSIM_SIMD", b.name, 1), 0);
    simd::select_default_backend();
    EXPECT_EQ(simd::active_backend().isa, b.isa) << "SVSIM_SIMD=" << b.name;
  }
  ::unsetenv("SVSIM_SIMD");
  simd::select_backend(prev);
}

TEST(SimdRegistry, EffectiveVectorBitsFallsBackToOneComplex) {
  const simd::Isa prev = simd::active_backend().isa;
  ASSERT_TRUE(simd::select_backend(simd::Isa::Scalar));
  EXPECT_EQ(simd::effective_vector_bits(8), 128u);  // one complex<double>
  EXPECT_EQ(simd::effective_vector_bits(4), 64u);   // one complex<float>
  // A vector backend reports its own width; detection gives Scalar on a
  // host with no AVX2, NEON or SVE, and then there is no vector branch.
  const simd::Isa detected = simd::detect_isa();
  if (detected != simd::Isa::Scalar) {
    const simd::BackendInfo* vec = backend_info(detected);
    ASSERT_TRUE(simd::select_backend(detected));
    EXPECT_EQ(simd::effective_vector_bits(8), vec->vector_bits);
    EXPECT_GT(vec->vector_bits, 0u);
  }
  simd::select_backend(prev);
}

}  // namespace
}  // namespace svsim::sv
