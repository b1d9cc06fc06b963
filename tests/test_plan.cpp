// ExecutionPlan compiler, validator, and cross-path equivalence.
//
// The plan IR is the contract between two compilers (compile_plan for one
// node, dist::compile_distributed for 2^d ranks) and three executors
// (sv::run_plan, dist::time_plan, perf::cost_plan). These tests pin the
// contract: structural invariants reject malformed plans, and the same
// circuit produces identical amplitudes whether it runs dense, blocked, or
// as a simulated-distributed plan at any rank count.
#include "sv/plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"
#include "dist/dist_plan.hpp"
#include "machine/cache_probe.hpp"
#include "machine/machine_spec.hpp"
#include "obs/metrics.hpp"
#include "perf/perf_simulator.hpp"
#include "qc/dense.hpp"
#include "qc/library.hpp"
#include "sv/engine.hpp"
#include "sv/simulator.hpp"
#include "sv/sweep.hpp"

namespace svsim::sv {
namespace {

using qc::Circuit;
using qc::Gate;

// ---------------------------------------------------------------- budget --

TEST(PlanCacheBudget, ExplicitBytesWinOverMachine) {
  const auto m = machine::MachineSpec::a64fx();
  PlanOptions po;
  po.cache_bytes = 12345;
  po.machine = &m;
  EXPECT_EQ(plan_cache_budget(po), 12345u);
}

TEST(PlanCacheBudget, MachineDerivesPerCoreShare) {
  // A64FX: 8 MiB CMG-shared L2 across 12 cores ~ 680 KiB per core.
  const auto m = machine::MachineSpec::a64fx();
  PlanOptions po;
  po.machine = &m;
  EXPECT_EQ(plan_cache_budget(po), m.cache_budget_per_core_bytes());
  EXPECT_GT(plan_cache_budget(po), kDefaultCacheBytes);
}

TEST(PlanCacheBudget, FallsBackToSweepDefault) {
  EXPECT_EQ(plan_cache_budget(PlanOptions{}), kDefaultCacheBytes);
  EXPECT_EQ(kDefaultCacheBytes, 512u * 1024u);
}

/// Pins SVSIM_CACHE_BUDGET and the probe override for one test, restoring
/// the default (env unset, probe measured) on exit.
struct ScopedCacheBudgetMode {
  ScopedCacheBudgetMode(const char* mode,
                        const machine::CacheProbeResult* probe) {
    if (mode != nullptr) ::setenv("SVSIM_CACHE_BUDGET", mode, 1);
    machine::set_probed_cache_budget_for_testing(probe);
  }
  ~ScopedCacheBudgetMode() {
    ::unsetenv("SVSIM_CACHE_BUDGET");
    machine::set_probed_cache_budget_for_testing(nullptr);
  }
};

TEST(PlanCacheBudget, ProbedModeUsesTheMeasuredKnee) {
  machine::CacheProbeResult probe;
  probe.valid = true;
  probe.effective_bytes = 128u * 1024u;
  ScopedCacheBudgetMode scope("probed", &probe);

  const auto m = machine::MachineSpec::a64fx();
  PlanOptions po;
  po.machine = &m;
  EXPECT_EQ(plan_cache_budget(po), 128u * 1024u);

  // Explicit bytes still beat the probe.
  po.cache_bytes = 99999;
  EXPECT_EQ(plan_cache_budget(po), 99999u);
}

TEST(PlanCacheBudget, ProbedAndDeclaredDisagreeOnBlockSize) {
  // A probe knee well below the declared A64FX LLC share (>25%
  // disagreement, the kCacheProbeWarnThreshold regime) must steer
  // auto-blocking to a smaller sweep block than the declared budget picks.
  const auto m = machine::MachineSpec::a64fx();
  machine::CacheProbeResult probe;
  probe.valid = true;
  probe.effective_bytes = 128u * 1024u;
  ASSERT_GT(machine::cache_budget_disagreement(m, probe),
            machine::kCacheProbeWarnThreshold);

  const Circuit c = qc::qft(24);
  PlanOptions po;
  po.blocking = true;
  po.machine = &m;

  unsigned probed_blocks = 0;
  {
    ScopedCacheBudgetMode scope("probed", &probe);
    probed_blocks = compile_plan(c, po).block_qubits;
  }
  const unsigned declared_blocks = compile_plan(c, po).block_qubits;
  EXPECT_LT(probed_blocks, declared_blocks);
  EXPECT_EQ(probed_blocks,
            auto_block_qubits(24, probe.effective_bytes, po.amp_bytes,
                              po.min_free_qubits));
}

TEST(PlanCacheBudget, InconclusiveProbeFallsBackToDeclared) {
  machine::CacheProbeResult probe;  // valid == false
  ScopedCacheBudgetMode scope("probed", &probe);
  const auto m = machine::MachineSpec::a64fx();
  PlanOptions po;
  po.machine = &m;
  EXPECT_EQ(plan_cache_budget(po), m.cache_budget_per_core_bytes());
}

TEST(PlanCacheBudget, UnknownModeIsAnError) {
  ScopedCacheBudgetMode scope("psychic", nullptr);
  EXPECT_THROW(plan_cache_budget(PlanOptions{}), Error);
}

TEST(PlanCacheBudget, DeclaredModeIsTheDefaultSpelledOut) {
  machine::CacheProbeResult probe;
  probe.valid = true;
  probe.effective_bytes = 128u * 1024u;
  ScopedCacheBudgetMode scope("declared", &probe);
  const auto m = machine::MachineSpec::a64fx();
  PlanOptions po;
  po.machine = &m;
  EXPECT_EQ(plan_cache_budget(po), m.cache_budget_per_core_bytes());
}

// -------------------------------------------------------------- compiler --

TEST(CompilePlan, SingleNodeIsGateForGateEquivalent) {
  const Circuit c = qc::random_clifford_t(6, 80, 3);
  PlanOptions po;
  po.blocking = true;
  po.block_qubits = 3;
  const ExecutionPlan plan = compile_plan(c, po);
  plan.validate();
  EXPECT_EQ(plan.node_qubits, 0u);
  EXPECT_EQ(plan.num_exchanges, 0u);
  EXPECT_EQ(plan.total_gates(), c.size());

  // Flattening the phases must reproduce the circuit's gate sequence.
  std::vector<Gate> flattened;
  for (const auto& phase : plan.phases)
    for (const auto& g : phase.gates) flattened.push_back(g);
  ASSERT_EQ(flattened.size(), c.size());
  for (std::size_t i = 0; i < flattened.size(); ++i) {
    EXPECT_EQ(flattened[i].kind, c.gate(i).kind);
    EXPECT_EQ(flattened[i].qubits, c.gate(i).qubits);
  }
}

TEST(CompilePlan, CoalescesConsecutiveMeasurements) {
  Circuit c(4, 4);
  c.h(0).h(1).measure(0, 0).measure(1, 1).h(2);
  const ExecutionPlan plan = compile_plan(c, PlanOptions{});
  plan.validate();
  // h, h | measure, measure | h
  ASSERT_EQ(plan.phases.size(), 4u);
  EXPECT_EQ(plan.phases[0].kind, PhaseKind::DenseGate);
  EXPECT_EQ(plan.phases[2].kind, PhaseKind::MeasureFlush);
  EXPECT_EQ(plan.phases[2].gates.size(), 2u);
  EXPECT_EQ(plan.phases[3].kind, PhaseKind::DenseGate);
  EXPECT_EQ(plan.measure_gates, 2u);
  EXPECT_EQ(plan.dense_gates, 3u);
}

TEST(CompilePlan, AutoBlockUsesMachineBudget) {
  const auto m = machine::MachineSpec::a64fx();
  const Circuit c = qc::qft(20);
  PlanOptions po;
  po.blocking = true;
  po.machine = &m;
  const ExecutionPlan plan = compile_plan(c, po);
  EXPECT_EQ(plan.block_qubits,
            auto_block_qubits(20, m.cache_budget_per_core_bytes(),
                              po.amp_bytes, po.min_free_qubits));
}

// ------------------------------------------------------------- validator --

ExecutionPlan tiny_dist_plan() {
  ExecutionPlan p;
  p.num_qubits = 4;
  p.node_qubits = 1;
  p.local_qubits = 3;
  p.block_qubits = 2;
  return p;
}

PlanPhase exchange_phase(unsigned local_slot, unsigned node_slot,
                         int rank_bit) {
  PlanPhase x;
  x.kind = PhaseKind::Exchange;
  x.moves_data = true;
  x.hops.push_back({local_slot, node_slot, rank_bit, 128.0});
  return x;
}

TEST(PlanValidate, RejectsAdjacentExchangePhases) {
  ExecutionPlan p = tiny_dist_plan();
  p.phases.push_back(exchange_phase(0, 3, 0));
  p.phases.push_back(exchange_phase(0, 3, 0));
  p.finalize();
  EXPECT_THROW(p.validate(), Error);
}

TEST(PlanValidate, RejectsSweepGateAboveBlockBoundary) {
  ExecutionPlan p = tiny_dist_plan();
  PlanPhase sweep;
  sweep.kind = PhaseKind::LocalSweep;
  sweep.gates.push_back(Gate::h(2));  // block_qubits = 2: slot 2 is outside
  p.phases.push_back(sweep);
  p.finalize();
  EXPECT_THROW(p.validate(), Error);
}

TEST(PlanValidate, RejectsMultiGateDensePhase) {
  ExecutionPlan p = tiny_dist_plan();
  PlanPhase dense;
  dense.kind = PhaseKind::DenseGate;
  dense.gates.push_back(Gate::h(0));
  dense.gates.push_back(Gate::h(1));
  p.phases.push_back(dense);
  p.finalize();
  EXPECT_THROW(p.validate(), Error);
}

TEST(PlanValidate, RejectsInconsistentRankBit) {
  ExecutionPlan p = tiny_dist_plan();
  p.phases.push_back(exchange_phase(0, 3, 2));  // slot 3 is rank bit 0
  p.finalize();
  EXPECT_THROW(p.validate(), Error);
}

TEST(PlanValidate, RejectsMeasureUnderPermutedLayout) {
  // A data-moving exchange permutes the register; measuring before the
  // layout is restored would sample the wrong qubit.
  ExecutionPlan p = tiny_dist_plan();
  p.num_clbits = 1;
  p.phases.push_back(exchange_phase(0, 3, 0));
  PlanPhase mf;
  mf.kind = PhaseKind::MeasureFlush;
  mf.gates.push_back(Gate::measure(0, 0));
  p.phases.push_back(mf);
  p.finalize();
  p.final_slot_of = {3, 1, 2, 0};  // matches the unrestored permutation
  EXPECT_THROW(p.validate(), Error);
}

// -------------------------------------------------- distributed compiler --

TEST(CompileDistributed, RemapRestoresIdentityLayout) {
  const Circuit c = qc::random_quantum_volume(8, 6, 11);
  dist::DistExecOptions o;
  o.scheduler = dist::CommScheduler::Remap;
  for (unsigned d : {1u, 2u, 3u}) {
    const ExecutionPlan plan = dist::compile_distributed(c, d, o);
    plan.validate();
    EXPECT_EQ(plan.node_qubits, d);
    for (unsigned q = 0; q < plan.num_qubits; ++q)
      EXPECT_EQ(plan.final_slot_of[q], q) << "d=" << d << " q=" << q;
  }
}

TEST(CompileDistributed, NaiveIsCostOnly) {
  const Circuit c = qc::random_quantum_volume(8, 6, 11);
  dist::DistExecOptions o;
  o.scheduler = dist::CommScheduler::Naive;
  const ExecutionPlan plan = dist::compile_distributed(c, 2, o);
  plan.validate();
  std::size_t exchange_phases = 0;
  for (const auto& phase : plan.phases) {
    if (phase.kind != PhaseKind::Exchange) continue;
    ++exchange_phases;
    EXPECT_FALSE(phase.moves_data);
  }
  EXPECT_GT(exchange_phases, 0u);
  // The layout never changes, so the final layout is trivially identity.
  for (unsigned q = 0; q < plan.num_qubits; ++q)
    EXPECT_EQ(plan.final_slot_of[q], q);
}

TEST(CompileDistributed, RemapOpensNoMoreWindowsThanNaivePaysExchanges) {
  // The Belady remapper's reason to exist: on a workload that hammers node
  // slots non-diagonally (QV), batching gates between remaps needs fewer
  // collective windows than paying an exchange at every node-slot gate.
  const Circuit c = qc::random_quantum_volume(10, 8, 5);
  dist::DistExecOptions naive;
  naive.scheduler = dist::CommScheduler::Naive;
  naive.restore_layout = false;
  dist::DistExecOptions remap;
  remap.scheduler = dist::CommScheduler::Remap;
  const ExecutionPlan np = dist::compile_distributed(c, 3, naive);
  const ExecutionPlan rp = dist::compile_distributed(c, 3, remap);
  EXPECT_LE(rp.num_windows(), np.num_exchanges);
  EXPECT_LE(rp.exchange_bytes_per_rank, np.exchange_bytes_per_rank);
}

TEST(CompileDistributed, RejectsDegenerateWidths) {
  const Circuit c = qc::qft(4);
  EXPECT_THROW(dist::compile_distributed(c, 4, {}), Error);
  EXPECT_THROW(dist::compile_distributed(c, 3, {}), Error);  // local < 2
}

// ------------------------------------------------------------ executors --

/// |got - want| elementwise within tol.
template <typename T>
void expect_amplitudes_near(const std::vector<std::complex<T>>& got,
                            const std::vector<std::complex<double>>& want,
                            double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_NEAR(std::abs(std::complex<double>(got[i]) - want[i]), 0.0, tol)
        << "amplitude " << i;
}

TEST(PlanEquivalence, DenseBlockedAndDistributedAgree) {
  // The same circuit through every compile path must produce the same
  // state. Random QV circuits on 8 qubits straddle both boundaries: block
  // (3 or auto) and rank (8-d .. 8).
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Circuit c = qc::random_quantum_volume(8, 6, seed);
    const auto want = qc::dense::run(c);

    {  // blocked single-node
      PlanOptions po;
      po.blocking = true;
      po.block_qubits = 3;
      StateVector<double> state(8);
      run_plan(state, compile_plan(c, po));
      expect_amplitudes_near(state.to_vector(), want, 1e-10);
    }
    for (unsigned d : {1u, 2u, 3u}) {  // simulated-distributed, remap
      dist::DistExecOptions o;
      o.scheduler = dist::CommScheduler::Remap;
      o.plan.blocking = true;
      o.plan.block_qubits = 3;
      const ExecutionPlan plan = dist::compile_distributed(c, d, o);
      Simulator<double> sim;
      StateVector<double> state(8);
      sim.run_plan(state, plan);
      expect_amplitudes_near(state.to_vector(), want, 1e-10);
    }
  }
}

TEST(PlanEquivalence, FusionPreservesDistributedAmplitudes) {
  const Circuit c = qc::random_quantum_volume(8, 5, 77);
  const auto want = qc::dense::run(c);
  dist::DistExecOptions o;
  o.scheduler = dist::CommScheduler::Remap;
  o.plan.fusion = true;
  o.plan.fusion_width = 3;
  o.plan.blocking = true;
  o.plan.block_qubits = 3;
  const ExecutionPlan plan = dist::compile_distributed(c, 2, o);
  Simulator<double> sim;
  StateVector<double> state(8);
  sim.run_plan(state, plan);
  expect_amplitudes_near(state.to_vector(), want, 1e-9);
}

TEST(PlanEquivalence, TrailingMeasurementMatchesDensePath) {
  // Measurement must happen under the restored identity layout and draw
  // from the same RNG stream as the dense path: same seed, same outcomes,
  // same collapsed state.
  Circuit c = qc::random_quantum_volume(6, 4, 9);
  for (unsigned q = 0; q < 6; ++q) c.measure(q, q);

  SimulatorOptions so;
  so.seed = 42;
  Simulator<double> dense(so);
  const StateVector<double> want = dense.run(c);
  const std::vector<bool> want_bits = dense.classical_bits();

  for (unsigned d : {1u, 2u}) {
    dist::DistExecOptions o;
    o.scheduler = dist::CommScheduler::Remap;
    o.plan.blocking = true;
    o.plan.block_qubits = 2;
    const ExecutionPlan plan = dist::compile_distributed(c, d, o);
    plan.validate();
    Simulator<double> sim(so);
    StateVector<double> state(6);
    sim.run_plan(state, plan);
    EXPECT_EQ(sim.classical_bits(), want_bits) << "d=" << d;
    expect_amplitudes_near(state.to_vector(), want.to_vector(), 1e-10);
  }
}

TEST(RunPlan, PassThroughGatesAreObserved) {
  // Regression: gates above the block boundary execute as DenseGate phases
  // and must still show up in the engine stats and the plan.* counters —
  // the blocked path once skipped their bookkeeping.
  Circuit c(6);
  c.h(0).h(5).cx(4, 5).h(1);
  PlanOptions po;
  po.blocking = true;
  po.block_qubits = 3;
  const ExecutionPlan plan = compile_plan(c, po);

  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t execs0 = registry.counter("plan.executions").value();
  const std::uint64_t phases0 =
      registry.counter("plan.phases_executed").value();

  StateVector<double> state(6);
  const EngineStats stats = run_plan(state, plan);
  EXPECT_EQ(stats.passthrough_gates, 2u);  // h(5), cx(4,5)
  EXPECT_EQ(stats.blocked_gates, 2u);      // h(0), h(1)
  EXPECT_EQ(stats.traversals, plan.traversals());
  EXPECT_GT(stats.bytes_streamed, 0u);

  EXPECT_EQ(registry.counter("plan.executions").value(), execs0 + 1);
  EXPECT_EQ(registry.counter("plan.phases_executed").value(),
            phases0 + plan.phases.size());
}

TEST(CostPlan, MirrorsPlanStructure) {
  const auto m = machine::MachineSpec::a64fx();
  const Circuit c = qc::random_quantum_volume(20, 6, 13);
  dist::DistExecOptions o;
  o.scheduler = dist::CommScheduler::Remap;
  o.plan.blocking = true;
  o.plan.machine = &m;
  const ExecutionPlan plan = dist::compile_distributed(c, 2, o);
  const perf::PlanCost cost = perf::cost_plan(plan, m, {});
  EXPECT_EQ(cost.phases.size(), plan.phases.size());
  EXPECT_EQ(cost.num_exchanges, plan.num_exchanges);
  EXPECT_NEAR(cost.exchange_bytes_per_rank, plan.exchange_bytes_per_rank,
              1e-6);
  EXPECT_EQ(cost.num_windows, plan.num_windows());
  EXPECT_GT(cost.compute_seconds, 0.0);
  EXPECT_GT(cost.total_flops, 0.0);
}

TEST(CostPlan, NodeSlotDiagonalsPriceWhatTheBusiestRankRuns) {
  // A diagonal whose operands all sit on node slots is a phase over the
  // whole partition on the ranks whose bits match; one with some local
  // operands is a diagonal on only those local slots. Scratch local slots
  // would under-price the first shape.
  const auto m = machine::MachineSpec::a64fx();
  const unsigned ln = 20;
  Circuit c(ln + 2);
  c.cp(ln, ln + 1, 0.3);  // both operands on node slots
  c.cp(1, ln + 1, 0.3);   // one local operand
  dist::DistExecOptions o;
  o.scheduler = dist::CommScheduler::Naive;
  o.restore_layout = false;
  const ExecutionPlan plan = dist::compile_distributed(c, 2, o);
  ASSERT_EQ(plan.phases.size(), 2u);
  EXPECT_EQ(plan.num_exchanges, 0u);
  const perf::PlanCost cost = perf::cost_plan(plan, m, {});

  const double whole_partition =
      perf::time_gate(Gate::rz(0, 0.1), ln, m, {}).seconds;
  const double local_diagonal =
      perf::time_gate(Gate::diag({1}, {qc::cplx{1.0, 0.0}, qc::cplx{0.0, 1.0}}),
                      ln, m, {})
          .seconds;
  EXPECT_DOUBLE_EQ(cost.phases[0].seconds, whole_partition);
  EXPECT_DOUBLE_EQ(cost.phases[1].seconds, local_diagonal);
  EXPECT_GT(cost.phases[0].seconds,
            perf::time_gate(Gate::cp(ln - 1, ln - 2, 0.3), ln, m, {}).seconds);
}

}  // namespace
}  // namespace svsim::sv
