#include "qc/routing.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "qc/dense.hpp"
#include "qc/library.hpp"
#include "sv/simulator.hpp"

namespace svsim::qc {
namespace {

/// Checks routed ≡ permute(final_layout) ∘ original on states: running the
/// routed circuit gives the original state with qubits relocated to their
/// final physical slots.
void check_routing_semantics(const Circuit& original) {
  const RoutedCircuit routed = route_linear(original);
  EXPECT_TRUE(respects_linear_coupling(routed.circuit));
  const auto want = dense::run(original);
  const auto got = dense::run(routed.circuit);
  for (std::uint64_t i = 0; i < want.size(); ++i) {
    std::uint64_t j = 0;
    for (unsigned q = 0; q < original.num_qubits(); ++q)
      if ((i >> q) & 1) j |= std::uint64_t{1} << routed.final_layout[q];
    EXPECT_NEAR(std::abs(got[j] - want[i]), 0.0, 1e-10);
  }
}

TEST(Routing, AdjacentGatesPassThrough) {
  Circuit c(4);
  c.h(0).cx(0, 1).cx(2, 3).cz(1, 2);
  const RoutedCircuit r = route_linear(c);
  EXPECT_EQ(r.swaps_inserted, 0u);
  EXPECT_EQ(r.circuit.size(), c.size());
  // Identity layout.
  for (unsigned q = 0; q < 4; ++q) EXPECT_EQ(r.final_layout[q], q);
}

TEST(Routing, DistantPairGetsSwaps) {
  Circuit c(5);
  c.cx(0, 4);
  const RoutedCircuit r = route_linear(c);
  EXPECT_TRUE(respects_linear_coupling(r.circuit));
  EXPECT_EQ(r.swaps_inserted, 3u);  // move 0 next to 4
  check_routing_semantics(c);
}

TEST(Routing, SemanticsOnQft) {
  // QFT has all-to-all CPs: the classic routing stress test.
  check_routing_semantics(qft(5));
}

TEST(Routing, SemanticsOnRandomCircuits) {
  for (std::uint64_t seed : {2ull, 9ull, 17ull}) {
    check_routing_semantics(random_clifford_t(5, 40, seed));
  }
}

TEST(Routing, RejectsWideGates) {
  Circuit c(3);
  c.ccx(0, 1, 2);
  EXPECT_THROW(route_linear(c), Error);
}

TEST(Routing, TracksMeasurementThroughLayout) {
  // x(0); cx(0,2): logical 0 and 2 both end in |1>. The measure gates must
  // follow the qubits wherever the router moved them.
  Circuit c(3);
  c.x(0).cx(0, 2).measure(0, 0).measure(1, 1).measure(2, 2);
  const RoutedCircuit r = route_linear(c);
  EXPECT_TRUE(respects_linear_coupling(r.circuit));
  sv::Simulator<double> sim;
  sim.run(r.circuit);
  EXPECT_TRUE(sim.classical_bits()[0]);
  EXPECT_FALSE(sim.classical_bits()[1]);
  EXPECT_TRUE(sim.classical_bits()[2]);
}

TEST(Routing, SwapCountGrowsWithDistance) {
  for (unsigned span : {2u, 4u, 7u}) {
    Circuit c(8);
    c.cx(0, span);
    EXPECT_EQ(route_linear(c).swaps_inserted, span - 1);
  }
}

TEST(Routing, LayoutIsAlwaysAPermutation) {
  const Circuit c = random_clifford_t(6, 80, 33);
  const RoutedCircuit r = route_linear(c);
  std::vector<bool> seen(6, false);
  for (unsigned p : r.final_layout) {
    ASSERT_LT(p, 6u);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(Routing, CouplingChecker) {
  Circuit ok(3);
  ok.cx(0, 1).cx(2, 1);
  EXPECT_TRUE(respects_linear_coupling(ok));
  Circuit bad(3);
  bad.cx(0, 2);
  EXPECT_FALSE(respects_linear_coupling(bad));
  Circuit wide(3);
  wide.ccx(0, 1, 2);
  EXPECT_FALSE(respects_linear_coupling(wide));
}

}  // namespace
}  // namespace svsim::qc
