#include "sv/simulator.hpp"

#include <gtest/gtest.h>

#include <numbers>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "qc/dense.hpp"
#include "qc/library.hpp"

namespace svsim::sv {
namespace {

using qc::Circuit;
using qc::Gate;

TEST(Simulator, BellState) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  Simulator<double> sim;
  const auto sv = sim.run(c);
  EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(3), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(1), 0.0, 1e-15);
}

TEST(Simulator, MatchesDenseOnRandomCircuits) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Circuit c = qc::random_clifford_t(6, 80, seed);
    Simulator<double> sim;
    const auto got = sim.run(c).to_vector();
    const auto want = qc::dense::run(c);
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, 1e-10);
  }
}

TEST(Simulator, QftStateMatchesDense) {
  Circuit c = qc::qft(7);
  Simulator<double> sim;
  const auto got = sim.run(c).to_vector();
  const auto want = qc::dense::run(c);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, 1e-9);
}

TEST(Simulator, BlockingDoesNotChangeResults) {
  // Random circuits with targets on both sides of the block boundary; the
  // blocked path runs the same kernel math (identical up to FP instruction
  // selection between the block and whole-state loops).
  for (std::uint64_t seed : {5ull, 6ull}) {
    const Circuit c = qc::random_clifford_t(8, 80, seed);
    Simulator<double> plain;
    SimulatorOptions bopts;
    bopts.blocking = true;
    bopts.block_qubits = 4;
    Simulator<double> blocked(bopts);
    const auto a = plain.run(c).to_vector();
    const auto b = blocked.run(c).to_vector();
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12);
  }
}

TEST(Simulator, BlockingComposesWithFusionAndMeasurement) {
  Circuit c = qc::random_quantum_volume(6, 4, 17);
  c.measure_all();
  SimulatorOptions opts;
  opts.fusion = true;
  opts.fusion_width = 3;
  opts.blocking = true;
  opts.seed = 11;
  Simulator<double> blocked(opts);
  SimulatorOptions plain_opts;
  plain_opts.seed = 11;
  Simulator<double> plain(plain_opts);
  const auto got = blocked.sample_counts(c, 512);
  const auto want = plain.sample_counts(c, 512);
  EXPECT_EQ(got, want);  // same seed, amplitude-exact path: same samples
}

TEST(Simulator, FusionDoesNotChangeResults) {
  const Circuit c = qc::random_quantum_volume(7, 5, 42);
  Simulator<double> plain;
  SimulatorOptions fused_opts;
  fused_opts.fusion = true;
  fused_opts.fusion_width = 4;
  Simulator<double> fused(fused_opts);
  const auto a = plain.run(c).to_vector();
  const auto b = fused.run(c).to_vector();
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-9);
}

TEST(Simulator, RunInPlaceValidatesWidth) {
  Circuit c(3);
  c.h(0);
  Simulator<double> sim;
  StateVector<double> wrong(2);
  EXPECT_THROW(sim.run_in_place(wrong, c), Error);
}

TEST(Simulator, MeasurementCollapsesAndRecords) {
  Circuit c(2);
  c.x(0).measure(0, 0).measure(1, 1);
  Simulator<double> sim;
  const auto sv = sim.run(c);
  EXPECT_TRUE(sim.classical_bits()[0]);
  EXPECT_FALSE(sim.classical_bits()[1]);
  EXPECT_NEAR(sv.probability(1), 1.0, 1e-12);
}

TEST(Simulator, ResetMidCircuit) {
  Circuit c(1);
  c.x(0).reset(0).h(0);
  Simulator<double> sim;
  const auto sv = sim.run(c);
  EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(1), 0.5, 1e-12);
}

TEST(Simulator, SampleCountsGhzFastPath) {
  Circuit c = qc::ghz(4);
  Simulator<double> sim;
  const auto counts = sim.sample_counts(c, 4000);
  // Only |0000> and |1111>.
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_NEAR(static_cast<double>(counts.at(0)) / 4000.0, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(counts.at(15)) / 4000.0, 0.5, 0.05);
}

TEST(Simulator, SampleCountsWithTrailingMeasuresMapsClbits) {
  Circuit c(3, 2);
  c.x(2).measure(2, 0).measure(0, 1);
  Simulator<double> sim;
  const auto counts = sim.sample_counts(c, 100);
  // q2=1 -> c0=1; q0=0 -> c1=0: key 0b01 = 1 always.
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.begin()->first, 1u);
  EXPECT_EQ(counts.begin()->second, 100u);
}

TEST(Simulator, SampleCountsTrajectoryPathForMidCircuitMeasure) {
  // Measure then act on the outcome qubit again: forces trajectories.
  Circuit c(1);
  c.h(0).measure(0, 0).h(0).measure(0, 0);
  obs::MetricsRegistry registry;
  ExecutionContext ctx;
  ctx.with_metrics(registry);
  SimulatorOptions opts;
  opts.context = &ctx;
  Simulator<double> sim(opts);
  const auto counts = sim.sample_counts(c, 200);
  std::size_t total = 0;
  for (const auto& [k, v] : counts) total += v;
  EXPECT_EQ(total, 200u);
  // Both outcomes possible.
  EXPECT_EQ(counts.size(), 2u);
  // One compile serves every trajectory.
  EXPECT_EQ(registry.counter("plan.compiles").value(), 1u);
  EXPECT_EQ(registry.counter("sv.runs").value(), 200u);
  EXPECT_TRUE(sim.sample_counts(c, 0).empty());
}

TEST(Simulator, ExpectationGhzParity) {
  // GHZ: <Z...Z> = 0 for odd parity observable <ZIII>, but <ZZZZ>... for
  // GHZ_4: <ZZZZ> = 1, <ZIII> = 0, <XXXX> = 1.
  Circuit c = qc::ghz(4);
  Simulator<double> sim;
  qc::PauliOperator zzzz(4), ziii(4), xxxx(4);
  zzzz.add(1.0, "ZZZZ");
  ziii.add(1.0, "ZIII");
  xxxx.add(1.0, "XXXX");
  EXPECT_NEAR(sim.expectation(c, zzzz), 1.0, 1e-10);
  EXPECT_NEAR(sim.expectation(c, ziii), 0.0, 1e-10);
  EXPECT_NEAR(sim.expectation(c, xxxx), 1.0, 1e-10);
}

TEST(Simulator, DeterministicAcrossRunsWithSameSeed) {
  Circuit c(2);
  c.h(0).h(1).measure_all();
  SimulatorOptions opts;
  opts.seed = 99;
  Simulator<double> a(opts), b(opts);
  EXPECT_EQ(a.sample_counts(c, 50), b.sample_counts(c, 50));
}

TEST(Simulator, FloatPrecisionRunsAgreeApproximately) {
  const Circuit c = qc::qft(6);
  Simulator<double> d;
  Simulator<float> f;
  const auto vd = d.run(c).to_vector();
  const auto vf = f.run(c).to_vector();
  for (std::size_t i = 0; i < vd.size(); ++i)
    EXPECT_NEAR(std::abs(vd[i] - vf[i]), 0.0, 1e-4);
}

TEST(Simulator, GroverEndToEnd) {
  const unsigned n = 6;
  const std::uint64_t marked = 37;
  Simulator<double> sim;
  const auto sv = sim.run(qc::grover(n, marked));
  EXPECT_GT(sv.probability(marked), 0.9);
}

TEST(Simulator, ApplyGateRejectsMeasure) {
  StateVector<double> sv(1);
  EXPECT_THROW(apply_gate(sv, Gate::measure(0, 0)), Error);
  EXPECT_THROW(apply_gate(sv, Gate::reset(0)), Error);
}

TEST(Simulator, ApplyGateRejectsOutOfRange) {
  StateVector<double> sv(2);
  EXPECT_THROW(apply_gate(sv, Gate::h(5)), Error);
}

}  // namespace
}  // namespace svsim::sv
