// Fig. 1 / Tab. 2 variants: cache-blocked sweep execution.
//
// fig1_blocked — the core claim of the blocked engine: a sweep of k
// low-target-qubit gates costs ~1 traversal of the state instead of k, so
// measured time per gate falls toward t_traversal/k and the DRAM bandwidth
// each gate consumes (measured GB/s divided across the sweep's gates) drops
// accordingly, while the unblocked baseline re-streams the state per gate.
//
// tab2_blocked — the same effect at circuit level: a fused
// quantum-volume circuit run through Simulator with blocking on/off,
// alongside the compiled plan's gates-per-traversal for the fused circuit.
#include "bench_util.hpp"

#include <cstdint>
#include <vector>

#include "perf/kernel_model.hpp"
#include "qc/library.hpp"
#include "sv/engine.hpp"
#include "sv/fusion.hpp"
#include "sv/plan.hpp"
#include "sv/sweep.hpp"

using namespace svsim;

SVSIM_BENCH(fig1_blocked, "Fig. 1 (blocked)",
            "sweep-length scaling: blocked vs. unblocked low-qubit gates") {
  const unsigned n = ctx.smoke() ? 18 : 24;
  sv::StateVector<double> state(n);
  bench::spread_amplitudes(state);

  // Default 512 KiB budget, complex<double> amplitudes.
  sv::PlanOptions po;
  po.blocking = true;
  const unsigned b = sv::auto_block_qubits(n, sv::kDefaultCacheBytes,
                                           po.amp_bytes, po.min_free_qubits);
  po.block_qubits = b;
  const auto a64fx = machine::MachineSpec::a64fx();

  Table t("Blocked sweep, n=" + std::to_string(n) +
              " b=" + std::to_string(b) + " (H gates, targets < b)",
          {"sweep_k", "gates_per_trav", "blocked_s", "unblocked_s", "speedup",
           "blk_GBps_per_gate", "unblk_GBps_per_gate"});

  for (unsigned k : {1u, 2u, 4u, 8u, 16u}) {
    if (ctx.smoke() && k != 1 && k != 4 && k != 16) continue;

    // k Hadamards on rotating low targets: every operand < b, so the
    // compiler folds the whole run into one LocalSweep phase.
    qc::Circuit c(n);
    for (unsigned i = 0; i < k; ++i) c.h(i % 8);
    const sv::ExecutionPlan plan = sv::compile_plan(c, po);
    const perf::SweepCost cost = perf::blocked_sweep_cost(
        c.gates(), n, b, a64fx, machine::ExecConfig{});

    BenchContext::MeasureOpts mo;
    mo.model_bytes = cost.dram_bytes;
    mo.min_reps = 3;
    mo.max_seconds = 2.0;
    const auto bs = ctx.measure(
        bench::sub("k", k) + ".blocked.s",
        [&] { sv::run_sweep(state, c.gates().data(), c.gates().size(), b); },
        mo);
    mo.model_bytes = cost.unblocked_bytes;
    const auto us = ctx.measure(
        bench::sub("k", k) + ".unblocked.s",
        [&] {
          for (const auto& g : c.gates()) sv::apply_gate(state, g);
        },
        mo);

    // Plan + model facts for this sweep length.
    ctx.model(bench::sub("k", k) + ".gates_per_traversal",
              plan.gates_per_traversal(), "gates");
    ctx.model(bench::sub("k", k) + ".blocked.gb_per_gate",
              cost.bytes_per_gate() * 1e-9, "GB", a64fx.name);
    ctx.model(bench::sub("k", k) + ".unblocked.gb_per_gate",
              cost.unblocked_bytes / static_cast<double>(k) * 1e-9, "GB",
              a64fx.name);

    // Measured-derived: the DRAM rate each gate's share of the run
    // sustains. Unblocked, every gate streams the state at full bandwidth;
    // blocked, one traversal is split across k gates, so this falls ~1/k.
    const double blk_gbps_per_gate =
        bench::measured_bandwidth_gbps(cost.dram_bytes, bs.median) / k;
    const double unblk_gbps_per_gate =
        bench::measured_bandwidth_gbps(cost.unblocked_bytes, us.median) / k;
    ctx.derived(bench::sub("k", k) + ".blocked.gbps_per_gate",
                blk_gbps_per_gate, "GB/s");
    ctx.derived(bench::sub("k", k) + ".unblocked.gbps_per_gate",
                unblk_gbps_per_gate, "GB/s");
    ctx.derived(bench::sub("k", k) + ".speedup", us.median / bs.median, "x");

    t.add_row({static_cast<std::int64_t>(k), plan.gates_per_traversal(),
               bs.median, us.median, us.median / bs.median, blk_gbps_per_gate,
               unblk_gbps_per_gate});
  }
  ctx.table(t);
}

SVSIM_BENCH(tab2_blocked, "Tab. 2 (blocked)",
            "blocked engine at circuit level: fused QV, Simulator on/off") {
  const unsigned n = ctx.smoke() ? 14 : 20;
  const unsigned depth = ctx.smoke() ? 4 : 8;
  const qc::Circuit c = qc::random_quantum_volume(n, depth, 3);

  sv::FusionOptions fo;
  fo.max_width = 3;
  const qc::Circuit fused = sv::fuse(c, fo);
  sv::PlanOptions po;
  po.blocking = true;
  po.cache_bytes = sv::kDefaultCacheBytes;
  const sv::ExecutionPlan plan = sv::compile_plan(fused, po);
  ctx.model("qv.gates_per_traversal", plan.gates_per_traversal(), "gates");

  Table t("Fused QV n=" + std::to_string(n) + " depth=" +
              std::to_string(depth) + ": Simulator blocking off/on",
          {"blocking", "measured_s", "speedup"});
  double base = 0.0;
  for (const bool blocking : {false, true}) {
    sv::SimulatorOptions opts;
    opts.blocking = blocking;
    BenchContext::MeasureOpts mo;
    mo.min_reps = 3;
    mo.max_seconds = 2.0;
    const auto st = ctx.measure(
        std::string("qv.") + (blocking ? "blocked" : "unblocked") + ".s",
        [&] {
          sv::Simulator<double> sim(opts);
          sim.run(fused);
        },
        mo);
    if (!blocking) base = st.median;
    t.add_row({std::string(blocking ? "on" : "off"), st.median,
               base / st.median});
  }
  ctx.table(t);
}
