#include "sv/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "qc/library.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace svsim::sv {
namespace {

std::string temp_path(const char* tag) {
  return std::string(::testing::TempDir()) + "/svsim_io_" + tag + ".bin";
}

TEST(StateIo, RoundTripDouble) {
  Simulator<double> sim;
  const auto state = sim.run(qc::qft(8));
  const std::string path = temp_path("rt_double");
  save_state(state, path);
  const auto loaded = load_state<double>(path);
  EXPECT_EQ(loaded.num_qubits(), 8u);
  EXPECT_EQ(loaded.to_vector(), state.to_vector());
  std::remove(path.c_str());
}

TEST(StateIo, RoundTripFloat) {
  Simulator<float> sim;
  const auto state = sim.run(qc::ghz(6));
  const std::string path = temp_path("rt_float");
  save_state(state, path);
  const auto loaded = load_state<float>(path);
  EXPECT_EQ(loaded.to_vector(), state.to_vector());
  std::remove(path.c_str());
}

TEST(StateIo, CrossPrecisionLoad) {
  Simulator<double> sim;
  const auto state = sim.run(qc::qft(7));
  const std::string path = temp_path("cross");
  save_state(state, path);
  const auto as_float = load_state<float>(path);
  const auto a = state.to_vector();
  const auto b = as_float.to_vector();
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-6);
  // And float file into double register.
  const std::string path2 = temp_path("cross2");
  save_state(as_float, path2);
  const auto back = load_state<double>(path2);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a[i] - back.to_vector()[i]), 0.0, 1e-6);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(StateIo, CheckpointResumeMatchesStraightRun) {
  // Run the first half, save, load, run the second half: identical to the
  // uninterrupted run.
  const qc::Circuit full = qc::qft(8);
  qc::Circuit first(8), second(8);
  for (std::size_t i = 0; i < full.size(); ++i)
    (i < full.size() / 2 ? first : second).append(full.gate(i));

  Simulator<double> sim;
  const auto direct = sim.run(full);

  auto half = sim.run(first);
  const std::string path = temp_path("resume");
  save_state(half, path);
  auto resumed = load_state<double>(path);
  sim.run_in_place(resumed, second);
  EXPECT_EQ(resumed.to_vector(), direct.to_vector());
  std::remove(path.c_str());
}

TEST(StateIo, RejectsGarbageAndMissingFiles) {
  EXPECT_THROW(load_state<double>("/nonexistent/state.bin"), Error);
  const std::string path = temp_path("garbage");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a state file at all";
  }
  EXPECT_THROW(load_state<double>(path), Error);
  std::remove(path.c_str());
}

TEST(StateIo, RejectsTruncatedFile) {
  Simulator<double> sim;
  const auto state = sim.run(qc::ghz(6));
  const std::string path = temp_path("trunc");
  save_state(state, path);
  // Truncate the payload.
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    contents.resize(contents.size() / 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  EXPECT_THROW(load_state<double>(path), Error);
  std::remove(path.c_str());
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
