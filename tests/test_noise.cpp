#include "sv/noise.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "qc/library.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace svsim::sv {
namespace {

using qc::Circuit;
using qc::Gate;

TEST(NoiseModel, EmptyByDefault) {
  NoiseModel nm;
  EXPECT_TRUE(nm.empty());
  nm.add_depolarizing(0.01);
  EXPECT_FALSE(nm.empty());
  EXPECT_EQ(nm.channels().size(), 1u);
}

TEST(NoiseModel, ParameterValidation) {
  NoiseModel nm;
  EXPECT_THROW(nm.add_depolarizing(-0.1), Error);
  EXPECT_THROW(nm.add_depolarizing(1.5), Error);
  EXPECT_THROW(nm.add_bit_flip(2.0), Error);
  EXPECT_THROW(nm.add_phase_flip(-1.0), Error);
  EXPECT_THROW(nm.add_amplitude_damping(1.01), Error);
}

TEST(NoiseModel, ZeroProbabilityIsIdentity) {
  NoiseModel nm;
  nm.add_depolarizing(0.0).add_bit_flip(0.0).add_phase_flip(0.0);
  StateVector<double> sv(3);
  apply_gate(sv, qc::Gate::h(0));
  const auto before = sv.to_vector();
  Xoshiro256 rng(1);
  for (int i = 0; i < 20; ++i) nm.apply_after(sv, Gate::h(0), rng);
  const auto after = sv.to_vector();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]);
}

TEST(NoiseModel, CertainBitFlipActsAsX) {
  NoiseModel nm;
  nm.add_bit_flip(1.0);
  StateVector<double> sv(1);
  Xoshiro256 rng(2);
  nm.apply_after(sv, Gate::i(0), rng);
  // I gate is unitary so noise applies; X flips |0> -> |1>.
  EXPECT_NEAR(sv.probability(1), 1.0, 1e-12);
}

TEST(NoiseModel, PhaseFlipLeavesPopulationsFlipsCoherence) {
  NoiseModel nm;
  nm.add_phase_flip(1.0);
  StateVector<double> sv(1);
  apply_gate(sv, qc::Gate::h(0));
  Xoshiro256 rng(3);
  nm.apply_after(sv, Gate::i(0), rng);
  // |+> -> |->: populations unchanged, amplitude of |1> negated.
  EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(1), 0.5, 1e-12);
  EXPECT_LT(sv.amplitude(1).real(), 0.0);
}

TEST(NoiseModel, ArityFilterSelectsGates) {
  NoiseModel nm;
  nm.add_bit_flip(1.0, /*arity=*/2);  // only after 2-qubit gates
  StateVector<double> sv(2);
  Xoshiro256 rng(4);
  nm.apply_after(sv, Gate::h(0), rng);  // arity 1: no noise
  EXPECT_NEAR(sv.probability_of_one(0), 0.0, 1e-12);
  sv.set_basis_state(0);
  nm.apply_after(sv, Gate::cx(0, 1), rng);  // arity 2: both qubits flip
  EXPECT_NEAR(sv.probability(3), 1.0, 1e-12);
}

TEST(NoiseModel, NoNoiseOnNonUnitaryOps) {
  NoiseModel nm;
  nm.add_bit_flip(1.0);
  StateVector<double> sv(1);
  Xoshiro256 rng(5);
  nm.apply_after(sv, Gate::measure(0, 0), rng);
  EXPECT_NEAR(sv.probability(0), 1.0, 1e-12);
}

TEST(NoiseModel, DepolarizingDecaysGhzParity) {
  // With depolarizing noise, the GHZ parity <ZZZZ> averaged over
  // trajectories decays below the ideal value 1.
  const unsigned n = 4;
  const Circuit c = qc::ghz(n);
  qc::PauliOperator zzzz(n);
  zzzz.add(1.0, "ZZZZ");

  SimulatorOptions noisy;
  noisy.noise.add_depolarizing(0.05);
  noisy.seed = 7;
  Simulator<double> sim(noisy);
  double sum = 0.0;
  const int trajectories = 300;
  for (int k = 0; k < trajectories; ++k) sum += sim.expectation(c, zzzz);
  const double avg = sum / trajectories;
  EXPECT_LT(avg, 0.95);
  EXPECT_GT(avg, 0.2);
}

TEST(NoiseModel, AmplitudeDampingDrivesToGround) {
  // Repeated damping on |1> must decay it toward |0>.
  NoiseModel nm;
  nm.add_amplitude_damping(0.3);
  Xoshiro256 rng(11);
  int ground = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    StateVector<double> sv(1);
    apply_gate(sv, Gate::x(0));
    for (int step = 0; step < 12; ++step) nm.apply_after(sv, Gate::i(0), rng);
    ground += sv.probability(0) > 0.5;
  }
  // P(survive 12 steps) = 0.7^12 ≈ 1.4%.
  EXPECT_GT(ground, trials * 9 / 10);
}

TEST(NoiseModel, AmplitudeDampingPreservesNorm) {
  NoiseModel nm;
  nm.add_amplitude_damping(0.2);
  Xoshiro256 rng(13);
  StateVector<double> sv(3);
  apply_gate(sv, qc::Gate::h(0));
  apply_gate(sv, Gate::cx(0, 1));
  for (int i = 0; i < 10; ++i) nm.apply_after(sv, Gate::h(2), rng);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-10);
}

TEST(NoiseModel, TrajectoriesPreserveNormUnderAllChannels) {
  NoiseModel nm;
  nm.add_depolarizing(0.1).add_bit_flip(0.05).add_phase_flip(0.05)
      .add_amplitude_damping(0.1);
  Xoshiro256 rng(17);
  StateVector<double> sv(4);
  for (unsigned q = 0; q < 4; ++q) apply_gate(sv, qc::Gate::h(q));
  for (int i = 0; i < 30; ++i)
    nm.apply_after(sv, Gate::cx(i % 4, (i + 1) % 4), rng);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-9);
}


TEST(NoiseModel, ReadoutErrorValidationAndFlip) {
  NoiseModel nm;
  EXPECT_THROW(nm.set_readout_error(-0.1, 0.0), Error);
  EXPECT_THROW(nm.set_readout_error(0.0, 1.5), Error);
  EXPECT_FALSE(nm.has_readout_error());
  nm.set_readout_error(1.0, 1.0);  // always flip
  EXPECT_TRUE(nm.has_readout_error());
  EXPECT_FALSE(nm.empty());
  Xoshiro256 rng(1);
  EXPECT_TRUE(nm.flip_readout(false, rng));
  EXPECT_FALSE(nm.flip_readout(true, rng));
}

TEST(NoiseModel, ReadoutErrorBiasesCounts) {
  // Ideal |0>, but 10% of zeros read as one.
  Circuit c(1);
  c.measure(0, 0);
  SimulatorOptions opts;
  opts.noise.set_readout_error(0.1, 0.0);
  opts.seed = 21;
  Simulator<double> sim(opts);
  const auto counts = sim.sample_counts(c, 10000);
  const double ones =
      counts.count(1) ? static_cast<double>(counts.at(1)) : 0.0;
  EXPECT_NEAR(ones / 10000.0, 0.1, 0.02);
}

TEST(NoiseModel, ReadoutErrorDoesNotDisturbState) {
  // Trajectory path: measure mid-circuit with certain flip; the collapse
  // must follow the TRUE outcome, only the record flips.
  Circuit c(1);
  c.x(0).measure(0, 0);
  SimulatorOptions opts;
  opts.noise.set_readout_error(1.0, 1.0);
  Simulator<double> sim(opts);
  const auto state = sim.run(c);
  EXPECT_FALSE(sim.classical_bits()[0]);          // flipped record
  EXPECT_NEAR(state.probability(1), 1.0, 1e-12);  // true collapse
}

TEST(NoiseModel, ReadoutKeepsFastPath) {
  // Readout-only noise on a GHZ sampling run still yields correlated
  // outputs up to independent flips (i.e. mass concentrated near 00/11).
  Circuit c = qc::ghz(2);
  c.measure_all();
  SimulatorOptions opts;
  opts.noise.set_readout_error(0.05, 0.05);
  opts.seed = 5;
  Simulator<double> sim(opts);
  const auto counts = sim.sample_counts(c, 8000);
  const double diag =
      static_cast<double>((counts.count(0) ? counts.at(0) : 0) +
                          (counts.count(3) ? counts.at(3) : 0));
  EXPECT_NEAR(diag / 8000.0, 0.905, 0.03);  // (1-p)^2 + p^2 per branch
}

}  // namespace
}  // namespace svsim::sv
