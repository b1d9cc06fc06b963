// The gather-class entries of every compiled backend: McPhase, DiagK (DIAG,
// RZZ and CRZ) and MatrixK, and Matrix2 on the operands inside a vector
// (qubits 0 and 1),
// which f32 serves through the MatrixK lane path. For every operand
// placement on a small state (qubit 0 and the
// top qubit included) each entry must match the scalar reference table
// within the documented bounds (1e-13 f64, 1e-5 f32), and its result must
// be bit-identical however the counter range is cut: every head and tail
// offset in [0, 8) against one whole-range call, and whole-state
// applications on pools of 1, 2 and 4 threads. DiagK placements include
// coefficients that are exactly one, which vector entries may skip (CRZ is
// one on its control-0 half). Random circuits of RZZ and CRZ also match the
// dense oracle on each backend. Backends the binary lacks or the CPU cannot
// run are skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "qc/circuit.hpp"
#include "qc/dense.hpp"
#include "qc/gate.hpp"
#include "qc/matrix.hpp"
#include "sv/kernels.hpp"
#include "sv/simd/simd.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"

namespace svsim::sv {
namespace {

using qc::Gate;
using qc::cplx;

/// Normalized random amplitudes.
template <typename T>
std::vector<std::complex<T>> random_amps(unsigned n, std::uint64_t seed) {
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

/// Every k-subset of [0, n), each in a random operand order.
std::vector<std::vector<unsigned>> placements(unsigned n, unsigned k,
                                              Xoshiro256& rng) {
  std::vector<std::vector<unsigned>> out;
  for (std::uint64_t m = 0; m < pow2(n); ++m) {
    if (popcount(m) != k) continue;
    std::vector<unsigned> qs;
    for (unsigned q = 0; q < n; ++q)
      if (test_bit(m, q)) qs.push_back(q);
    for (std::size_t i = qs.size(); i > 1; --i)
      std::swap(qs[i - 1], qs[rng.uniform_int(i)]);
    out.push_back(qs);
  }
  return out;
}

/// Random unit-modulus diagonal; with `ones`, about half its entries are
/// exactly one (the shape of fused controlled phases).
Gate random_diag(const std::vector<unsigned>& qs, bool ones, Xoshiro256& rng) {
  std::vector<cplx> d(pow2(static_cast<unsigned>(qs.size())));
  for (auto& e : d)
    e = ones && rng.uniform() < 0.5 ? cplx{1.0, 0.0}
                                    : std::polar(1.0, 6.28 * rng.uniform());
  return Gate::diag(qs, std::move(d));
}

/// McPhase, DiagK and MatrixK gates on every placement of a 2^n state.
std::vector<Gate> gather_gates(unsigned n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Gate> gates;
  for (const auto& qs : placements(n, 2, rng)) {
    gates.push_back(Gate::cp(qs[0], qs[1], 0.3 + rng.uniform()));
    gates.push_back(Gate::rzz(qs[0], qs[1], 0.2 + rng.uniform()));
    gates.push_back(Gate::crz(qs[0], qs[1], 0.4 + rng.uniform()));
  }
  for (const auto& qs : placements(n, 3, rng))
    gates.push_back(Gate::mcp({qs[0], qs[1]}, qs[2], 0.7 + rng.uniform()));
  for (unsigned k = 1; k <= 4; ++k)
    for (const auto& qs : placements(n, k, rng)) {
      gates.push_back(random_diag(qs, false, rng));
      gates.push_back(random_diag(qs, true, rng));
    }
  for (unsigned k = 3; k <= 4; ++k)
    for (const auto& qs : placements(n, k, rng))
      gates.push_back(
          Gate::unitary(qs, qc::Matrix::random_unitary(pow2(k), rng)));
  // Wider than the vector paths: the scalar mirrors throughout.
  const auto wide = placements(n, 5, rng);
  gates.push_back(Gate::unitary(wide.front(),
                                qc::Matrix::random_unitary(32, rng)));
  gates.push_back(random_diag(placements(n, n, rng).front(), true, rng));
  return gates;
}

template <typename T>
bool same_bits(const std::vector<std::complex<T>>& a,
               const std::vector<std::complex<T>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

/// Matrix2 on every placement that has qubit 0 or 1 as an operand, in both
/// operand orders: the operands f32 vectors (and f64, for qubit 0) hold.
std::vector<Gate> low_matrix2_gates(unsigned n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Gate> gates;
  for (unsigned a = 0; a < n; ++a)
    for (unsigned b = 0; b < n; ++b)
      if (a != b && (a <= 1 || b <= 1))
        gates.push_back(
            Gate::unitary({a, b}, qc::Matrix::random_unitary(4, rng)));
  return gates;
}

constexpr unsigned kPlacementQubits = 7;

template <typename T>
void check_against_scalar_and_offsets(const std::vector<Gate>& gates,
                                      double tol) {
  const auto& active = active_kernel_table<T>();
  const auto& scalar = kernel_table<T>();
  std::uint64_t seed = 0x6a7e;
  for (const Gate& g : gates) {
    const PreparedGate<T> pg = prepare_gate<T>(g);
    ASSERT_TRUE(pg.cls == KernelClass::McPhase ||
                pg.cls == KernelClass::DiagK ||
                pg.cls == KernelClass::MatrixK ||
                pg.cls == KernelClass::Matrix2)
        << g.to_string();
    const KernelFn<T> fn = active[static_cast<std::size_t>(pg.cls)];
    const std::uint64_t counters = pow2(kPlacementQubits - pg.counter_bits);
    const std::vector<std::complex<T>> input =
        random_amps<T>(kPlacementQubits, ++seed);

    std::vector<std::complex<T>> whole = input, ref = input;
    fn(whole.data(), pg, 0, counters);
    scalar[static_cast<std::size_t>(pg.cls)](ref.data(), pg, 0, counters);
    double dist = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i)
      dist = std::max(dist, static_cast<double>(std::abs(whole[i] - ref[i])));
    EXPECT_LE(dist, tol) << g.to_string();

    for (std::uint64_t head = 0; head < 8; ++head)
      for (std::uint64_t tail = 0; tail < 8; ++tail) {
        if (head + tail > counters) continue;
        std::vector<std::complex<T>> cut = input;
        fn(cut.data(), pg, 0, head);
        fn(cut.data(), pg, head, counters - tail);
        fn(cut.data(), pg, counters - tail, counters);
        EXPECT_TRUE(same_bits(cut, whole))
            << g.to_string() << " head=" << head << " tail=" << tail;
      }
  }
}

template <typename T>
void check_pool_sizes() {
  // Wide enough that the pool's byte grain rule forks the counter range.
  constexpr unsigned kN = 16;
  ThreadPool pool1(1), pool2(2), pool4(4);
  Xoshiro256 rng(0x33);
  const unsigned top = kN - 1;
  const std::vector<Gate> gates = {
      Gate::cp(0, top, 0.4),
      Gate::cp(1, 2, 0.9),
      Gate::mcp({0, 7}, top, 1.3),
      Gate::rzz(0, top, 0.8),
      Gate::rzz(9, 2, 1.7),
      Gate::crz(top, 0, 0.6),
      Gate::crz(1, 8, 2.1),
      random_diag({0, top}, true, rng),
      random_diag({2, 9, 4}, true, rng),
      random_diag({top, 1, 0, 8}, false, rng),
      Gate::unitary({0, 5, top}, qc::Matrix::random_unitary(8, rng)),
      Gate::unitary({3, 1, 12}, qc::Matrix::random_unitary(8, rng)),
      Gate::unitary({top, 4, 6, 0}, qc::Matrix::random_unitary(16, rng)),
      Gate::unitary({1, top}, qc::Matrix::random_unitary(4, rng)),
      Gate::unitary({1, 0}, qc::Matrix::random_unitary(4, rng)),
  };
  pool4.reset_stats();
  std::uint64_t seed = 0x7b00;
  for (const Gate& g : gates) {
    const PreparedGate<T> pg = prepare_gate<T>(g);
    const std::vector<std::complex<T>> input = random_amps<T>(kN, ++seed);
    std::vector<std::complex<T>> whole = input;
    apply_range(whole.data(), pg, 0, pow2(kN - pg.counter_bits));
    for (ThreadPool* pool : {&pool1, &pool2, &pool4}) {
      std::vector<std::complex<T>> got = input;
      apply_prepared(got.data(), kN, pg, *pool);
      EXPECT_TRUE(same_bits(got, whole))
          << g.to_string() << " threads=" << pool->num_threads();
    }
  }
  EXPECT_GT(pool4.stats().parallel_regions, 0u);
}

/// Random circuits of RZZ and CRZ on every operand order, between layers of
/// RX that keep the state dense, against the dense oracle: unblocked and in
/// 2^4-amplitude blocks.
template <typename T>
void check_rzz_crz_circuits(double tol) {
  constexpr unsigned kN = 7;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Xoshiro256 rng(seed);
    qc::Circuit c(kN);
    for (unsigned q = 0; q < kN; ++q) c.append(Gate::rx(q, 0.3 + q));
    for (unsigned i = 0; i < 60; ++i) {
      const unsigned a = static_cast<unsigned>(rng.uniform_int(kN));
      const unsigned b =
          (a + 1 + static_cast<unsigned>(rng.uniform_int(kN - 1))) % kN;
      const double theta = 6.28 * rng.uniform();
      c.append(i % 2 == 0 ? Gate::rzz(a, b, theta) : Gate::crz(a, b, theta));
      if (i % 6 == 5) c.append(Gate::rx(a, theta));
    }
    const auto want = qc::dense::run(c);
    SimulatorOptions blocked;
    blocked.blocking = true;
    blocked.block_qubits = 4;
    for (const SimulatorOptions& opts : {SimulatorOptions{}, blocked}) {
      Simulator<T> sim(opts);
      const auto got = sim.run(c).to_vector();
      double dist = 0.0;
      for (std::size_t i = 0; i < want.size(); ++i)
        dist = std::max(dist, std::abs(got[i] - want[i]));
      EXPECT_LE(dist, tol) << "seed " << seed << " blocked " << opts.blocking;
    }
  }
}

class GatherKernels : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    prev_ = simd::active_backend().isa;
    bool available = false;
    for (const auto& b : simd::backends())
      if (b.isa == GetParam()) available = b.available;
    if (!available)
      GTEST_SKIP() << simd::isa_name(GetParam())
                   << " backend not available on this build/CPU";
    ASSERT_TRUE(simd::select_backend(GetParam()));
  }
  void TearDown() override { simd::select_backend(prev_); }

 private:
  simd::Isa prev_ = simd::Isa::Scalar;
};

TEST_P(GatherKernels, MatchScalarAndIgnoreRangeCutsF64) {
  check_against_scalar_and_offsets<double>(
      gather_gates(kPlacementQubits, 0x91), 1e-13);
}

TEST_P(GatherKernels, MatchScalarAndIgnoreRangeCutsF32) {
  check_against_scalar_and_offsets<float>(
      gather_gates(kPlacementQubits, 0x91), 1e-5);
}

TEST_P(GatherKernels, Matrix2OnLowQubitsIgnoresRangeCutsF32) {
  check_against_scalar_and_offsets<float>(
      low_matrix2_gates(kPlacementQubits, 0x4d), 1e-5);
}

TEST_P(GatherKernels, PoolSizesAreBitIdenticalF64) { check_pool_sizes<double>(); }

TEST_P(GatherKernels, RzzAndCrzCircuitsMatchDenseF64) {
  check_rzz_crz_circuits<double>(1e-13);
}

TEST_P(GatherKernels, RzzAndCrzCircuitsMatchDenseF32) {
  check_rzz_crz_circuits<float>(1e-5);
}

TEST_P(GatherKernels, PoolSizesAreBitIdenticalF32) { check_pool_sizes<float>(); }

INSTANTIATE_TEST_SUITE_P(AllIsas, GatherKernels,
                         ::testing::Values(simd::Isa::Scalar, simd::Isa::Neon,
                                           simd::Isa::Avx2, simd::Isa::Sve),
                         [](const auto& info) {
                           return std::string(simd::isa_name(info.param));
                         });

}  // namespace
}  // namespace svsim::sv
