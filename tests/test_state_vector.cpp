#include "sv/state_vector.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "qc/dense.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace svsim::sv {
namespace {

/// Brace-friendly shim: std::span cannot bind an initializer list directly.
void set_state_of(StateVector<double>& sv,
                  std::vector<std::complex<double>> v) {
  sv.set_state(v);
}

TEST(StateVector, InitializesToZeroState) {
  StateVector<double> sv(4);
  EXPECT_EQ(sv.size(), 16u);
  EXPECT_EQ(sv.num_qubits(), 4u);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - std::complex<double>{1, 0}), 0.0,
              1e-15);
  for (std::uint64_t i = 1; i < sv.size(); ++i)
    EXPECT_EQ(sv.amplitude(i), (std::complex<double>{0, 0}));
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-15);
}

TEST(StateVector, RejectsBadSizes) {
  EXPECT_THROW(StateVector<double>(0), Error);
  EXPECT_THROW(StateVector<double>(60), Error);
}

TEST(StateVector, SetBasisState) {
  StateVector<double> sv(3);
  sv.set_basis_state(5);
  EXPECT_NEAR(sv.probability(5), 1.0, 1e-15);
  EXPECT_NEAR(sv.probability(0), 0.0, 1e-15);
  EXPECT_THROW(sv.set_basis_state(8), Error);
}

TEST(StateVector, SetStateAndToVectorRoundTrip) {
  StateVector<double> sv(2);
  const std::vector<std::complex<double>> state = {0.5, 0.5, 0.5, 0.5};
  set_state_of(sv, state);
  EXPECT_EQ(sv.to_vector(), state);
}

TEST(StateVector, NormalizeScalesToUnit) {
  StateVector<double> sv(2);
  set_state_of(sv, {{1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}});
  sv.normalize();
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(StateVector, InnerProductOrthonormalBasis) {
  StateVector<double> a(3), b(3);
  a.set_basis_state(2);
  b.set_basis_state(2);
  EXPECT_NEAR(std::abs(a.inner_product(b) - std::complex<double>{1, 0}), 0.0,
              1e-14);
  b.set_basis_state(3);
  EXPECT_NEAR(std::abs(a.inner_product(b)), 0.0, 1e-14);
}

TEST(StateVector, InnerProductPhase) {
  StateVector<double> a(1), b(1);
  // a = |0>, b = i|0>  ->  <a|b> = i
  set_state_of(b, {{0.0, 1.0}, {0.0, 0.0}});
  const auto ip = a.inner_product(b);
  EXPECT_NEAR(ip.real(), 0.0, 1e-14);
  EXPECT_NEAR(ip.imag(), 1.0, 1e-14);
}

TEST(StateVector, ProbabilityOfOne) {
  StateVector<double> sv(2);
  // (|00> + |01>)/√2 : qubit 0 has P(1) = 1/2, qubit 1 has P(1) = 0.
  const double r = 1 / std::numbers::sqrt2;
  set_state_of(sv, {r, r, 0.0, 0.0});
  EXPECT_NEAR(sv.probability_of_one(0), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability_of_one(1), 0.0, 1e-12);
  EXPECT_THROW(sv.probability_of_one(2), Error);
}

TEST(StateVector, CollapseProjectsAndRenormalizes) {
  StateVector<double> sv(2);
  const double r = 0.5;
  set_state_of(sv, {r, r, r, r});
  sv.collapse(0, true, 0.5);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
  EXPECT_NEAR(sv.probability_of_one(0), 1.0, 1e-12);
  EXPECT_NEAR(sv.probability(0), 0.0, 1e-15);
  EXPECT_NEAR(sv.probability(1), 0.5, 1e-12);
}

TEST(StateVector, MeasureDeterministicStates) {
  Xoshiro256 rng(1);
  StateVector<double> sv(2);
  sv.set_basis_state(3);
  EXPECT_TRUE(sv.measure(0, rng));
  EXPECT_TRUE(sv.measure(1, rng));
  sv.set_basis_state(0);
  EXPECT_FALSE(sv.measure(0, rng));
}

TEST(StateVector, MeasureStatisticsOnPlusState) {
  Xoshiro256 rng(7);
  int ones = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    StateVector<double> sv(1);
    apply_h(sv.data(), 1, 0, sv.pool());
    ones += sv.measure(0, rng);
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.05);
}

TEST(StateVector, ResetForcesZero) {
  Xoshiro256 rng(3);
  StateVector<double> sv(2);
  sv.set_basis_state(3);
  sv.reset_qubit(0, rng);
  EXPECT_NEAR(sv.probability_of_one(0), 0.0, 1e-12);
  EXPECT_NEAR(sv.probability_of_one(1), 1.0, 1e-12);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(StateVector, SampleRespectsDistribution) {
  StateVector<double> sv(2);
  // P = {0.25, 0.25, 0.5, 0}
  set_state_of(sv, {0.5, 0.5, 1 / std::numbers::sqrt2, 0.0});
  Xoshiro256 rng(11);
  const auto samples = sv.sample(20000, rng);
  std::array<int, 4> counts{};
  for (auto s : samples) ++counts[s];
  EXPECT_NEAR(counts[0] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.5, 0.02);
  EXPECT_EQ(counts[3], 0);
}

TEST(StateVector, SampleDeterministicInSeed) {
  StateVector<double> sv(3);
  apply_h(sv.data(), 3, 0, sv.pool());
  apply_h(sv.data(), 3, 1, sv.pool());
  Xoshiro256 r1(5), r2(5);
  EXPECT_EQ(sv.sample(100, r1), sv.sample(100, r2));
}

TEST(StateVector, ExpectationSingleQubitPaulis) {
  StateVector<double> sv(1);
  // |0>: <Z> = 1, <X> = 0.
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("Z")), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("X")), 0.0, 1e-12);
  // |+>: <X> = 1, <Z> = 0.
  apply_h(sv.data(), 1, 0, sv.pool());
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("X")), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("Z")), 0.0, 1e-12);
}

TEST(StateVector, ExpectationWithYFactor) {
  // |y+> = (|0> + i|1>)/√2 has <Y> = +1.
  StateVector<double> sv(1);
  const double r = 1 / std::numbers::sqrt2;
  set_state_of(sv, {{r, 0.0}, {0.0, r}});
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("Y")), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("Z")), 0.0, 1e-12);
}

TEST(StateVector, ExpectationMatchesDenseMatrixQuadratureRandomStates) {
  Xoshiro256 rng(13);
  const unsigned n = 4;
  for (const std::string label : {"ZZII", "XXYY", "IXZY", "YIIX"}) {
    // Random normalized state.
    std::vector<std::complex<double>> state(pow2(n));
    double norm = 0.0;
    for (auto& a : state) {
      a = {rng.normal(), rng.normal()};
      norm += std::norm(a);
    }
    for (auto& a : state) a /= std::sqrt(norm);

    StateVector<double> sv(n);
    set_state_of(sv, state);
    const auto p = qc::PauliString::from_label(label);
    const qc::Matrix pm = p.to_matrix();
    std::complex<double> expect{0, 0};
    for (std::uint64_t i = 0; i < state.size(); ++i)
      for (std::uint64_t j = 0; j < state.size(); ++j)
        expect += std::conj(state[i]) * pm(i, j) * state[j];
    EXPECT_NEAR(sv.expectation(p), expect.real(), 1e-10) << label;
  }
}

TEST(StateVector, ExpectationOfOperatorSumsTerms) {
  StateVector<double> sv(2);
  qc::PauliOperator op(2);
  op.add(2.0, "IZ").add(3.0, "ZI").add(0.5, "XX");
  // |00>: <IZ> = <ZI> = 1, <XX> = 0.
  EXPECT_NEAR(sv.expectation(op), 5.0, 1e-12);
}


TEST(StateVector, MarginalProbabilities) {
  // (|00> + |11>)/√2 on qubits {0,1} of a 3-qubit register.
  StateVector<double> sv(3);
  apply_h(sv.data(), 3, 0, sv.pool());
  sv::apply_gate(sv, qc::Gate::cx(0, 1));
  const auto m01 = sv.marginal_probabilities({0, 1});
  ASSERT_EQ(m01.size(), 4u);
  EXPECT_NEAR(m01[0], 0.5, 1e-12);
  EXPECT_NEAR(m01[3], 0.5, 1e-12);
  EXPECT_NEAR(m01[1], 0.0, 1e-12);
  // Marginal of one qubit matches probability_of_one.
  const auto m0 = sv.marginal_probabilities({0});
  EXPECT_NEAR(m0[1], sv.probability_of_one(0), 1e-12);
  // Order of the qubit list sets the bit order of the bin index.
  const auto m10 = sv.marginal_probabilities({1, 0});
  EXPECT_NEAR(m10[0], m01[0], 1e-12);
  EXPECT_NEAR(m10[3], m01[3], 1e-12);
}

TEST(StateVector, MarginalSumsToOneAndValidates) {
  StateVector<double> sv(4);
  apply_h(sv.data(), 4, 2, sv.pool());
  apply_h(sv.data(), 4, 3, sv.pool());
  const auto m = sv.marginal_probabilities({3, 1});
  double total = 0.0;
  for (double p : m) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_THROW(sv.marginal_probabilities({}), Error);
  EXPECT_THROW(sv.marginal_probabilities({9}), Error);
}

TEST(StateVector, MeasurementPathIdenticalOnAnyPoolSize) {
  // probability_of_one and sample sum fixed chunks in chunk order whether
  // the region forks or runs inline, so every pool size gives the same
  // bits. The sizes straddle kForkGrainBytes: n = 3 and 10 run every region
  // inline, n = 14 forks collapse on every pool but probability_of_one only
  // on two threads, and n = 18 forks both.
  struct Run {
    std::vector<double> p1;
    std::vector<std::uint64_t> samples;
    std::vector<bool> outcomes;
    std::vector<std::complex<double>> after;
    std::uint64_t parallel_regions = 0;
  };
  for (unsigned n : {3u, 10u, 14u, 18u}) {
    Xoshiro256 gen(100 + n);
    std::vector<std::complex<double>> amps(pow2(n));
    double norm = 0.0;
    for (auto& a : amps) {
      a = {gen.uniform() - 0.5, gen.uniform() - 0.5};
      norm += std::norm(a);
    }
    for (auto& a : amps) a /= std::sqrt(norm);

    const auto run_on = [&](unsigned threads) {
      ThreadPool pool(threads);
      StateVector<double> sv(n, &pool);
      sv.set_state(amps);
      Run r;
      for (unsigned q = 0; q < n; ++q)
        r.p1.push_back(sv.probability_of_one(q));
      Xoshiro256 rng(7);
      r.samples = sv.sample(1000, rng);
      for (unsigned q = 0; q < n; q += 2)
        r.outcomes.push_back(sv.measure(q, rng));
      r.after = sv.to_vector();
      r.parallel_regions = pool.stats().parallel_regions;
      return r;
    };
    const Run ref = run_on(1);
    for (unsigned threads : {2u, 3u, 4u}) {
      const Run r = run_on(threads);
      EXPECT_EQ(r.p1, ref.p1) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(r.samples, ref.samples) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(r.outcomes, ref.outcomes)
          << "n=" << n << " threads=" << threads;
      EXPECT_EQ(r.after, ref.after) << "n=" << n << " threads=" << threads;
      if (n <= 10) EXPECT_EQ(r.parallel_regions, 0u) << "n=" << n;
      if (n == 18) EXPECT_GT(r.parallel_regions, 0u) << "threads=" << threads;
    }
  }
}

TEST(StateVectorFloat, SinglePrecisionBasics) {
  StateVector<float> sv(3);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-6);
  apply_h(sv.data(), 3, 1, sv.pool());
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-6);
  EXPECT_NEAR(sv.probability_of_one(1), 0.5, 1e-6);
}

TEST(StateVectorFloat, PrecisionLowerThanDouble) {
  // Apply many gates; float error grows but stays bounded for this size.
  StateVector<float> svf(4);
  StateVector<double> svd(4);
  for (int rep = 0; rep < 50; ++rep) {
    for (unsigned q = 0; q < 4; ++q) {
      apply_h(svf.data(), 4, q, svf.pool());
      apply_h(svd.data(), 4, q, svd.pool());
    }
  }
  EXPECT_NEAR(svf.norm_squared(), 1.0, 1e-4);
  EXPECT_NEAR(svd.norm_squared(), 1.0, 1e-12);
}

}  // namespace
}  // namespace svsim::sv
