// Ablation bench: quantifies the design choices DESIGN.md calls out.
//
//  A. Cache-line granularity — the A64FX's unusually large 256 B lines are
//     load-bearing for controlled/diagonal gates: re-running the model with
//     64 B lines shows how much traffic the big lines waste on low-bit
//     controls (and why the model must be line-granular at all).
//  B. Diagonal-fusion preference — emitting diagonal groups as DIAG gates
//     instead of dense UNITARY matrices: model and host-measured effect.
//  C. Communication scheduler — naive vs. Belady remap exchange volume on
//     workloads with different node-qubit pressure.
//  D. 1q kernel iteration scheme — run-blocked vs. per-pair, host-measured.
#include "bench_util.hpp"

#include "common/rng.hpp"
#include "dist/dist_sim.hpp"
#include "perf/perf_simulator.hpp"
#include "qc/library.hpp"
#include "sv/fusion.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

using namespace svsim;

namespace {

void ablation_line_size(bench::BenchContext& ctx) {
  auto m256 = machine::MachineSpec::a64fx();
  auto m64 = m256;
  m64.name = "A64FX (hypothetical 64B lines)";
  for (auto& c : m64.caches) c.line_bytes = 64;

  Table t("A: traffic vs. cache-line size (n=26, model bytes per gate)",
          {"gate", "256B_lines_MB", "64B_lines_MB", "waste_factor"});
  const std::vector<std::pair<std::string, qc::Gate>> gates = {
      {"cx_ctrl0", qc::Gate::cx(0, 13)},
      {"cx_ctrl3", qc::Gate::cx(3, 13)},
      {"cx_ctrl25", qc::Gate::cx(25, 13)},
      {"t_2", qc::Gate::t(2)},
      {"t_25", qc::Gate::t(25)},
      {"ccz_0_1_2", qc::Gate::ccz(0, 1, 2)},
      {"ccz_23_24_25", qc::Gate::ccz(23, 24, 25)},
  };
  for (const auto& [name, g] : gates) {
    const double b256 = perf::gate_cost(g, 26, m256, {}).bytes;
    const double b64 = perf::gate_cost(g, 26, m64, {}).bytes;
    t.add_row({name, b256 * 1e-6, b64 * 1e-6, b256 / b64});
    ctx.model("lines." + name + ".waste", b256 / b64, "ratio", m256.name);
  }
  ctx.table(t);
}

void ablation_diagonal_fusion(bench::BenchContext& ctx) {
  // A circuit with long diagonal runs (QAOA cost layers).
  const unsigned n_model = 26;
  const qc::Circuit c_model = qc::qaoa_maxcut(
      n_model, qc::ring_graph(n_model), {0.8, 0.7, 0.6}, {0.4, 0.3, 0.2});
  const auto m = machine::MachineSpec::a64fx();

  Table t("B: diagonal-fusion preference (QAOA p=3, model on A64FX n=26)",
          {"variant", "gates", "model_s"});
  for (const bool prefer : {true, false}) {
    sv::FusionOptions fo;
    fo.max_width = 4;
    fo.prefer_diagonal = prefer;
    const qc::Circuit fused = sv::fuse(c_model, fo);
    const auto r = bench::model_circuit(fused, m);
    t.add_row({std::string(prefer ? "DIAG kernels" : "dense UNITARY"),
               static_cast<std::int64_t>(fused.size()), r.compute_seconds});
    ctx.model(std::string("diagfuse.") + (prefer ? "diag" : "dense") + ".s",
              r.compute_seconds, "s", m.name);
  }
  ctx.table(t);

  // Host-measured.
  const unsigned n_host = ctx.smoke() ? 14 : 18;
  const qc::Circuit c_host = qc::qaoa_maxcut(
      n_host, qc::ring_graph(n_host), {0.8, 0.7, 0.6}, {0.4, 0.3, 0.2});
  const auto host = bench::host_spec();
  Table th("B: diagonal-fusion preference (host measured, n=" +
               std::to_string(n_host) + ")",
           {"variant", "gates", "seconds"});
  for (const bool prefer : {true, false}) {
    sv::FusionOptions fo;
    fo.max_width = 4;
    fo.prefer_diagonal = prefer;
    const qc::Circuit fused = sv::fuse(c_host, fo);
    BenchContext::MeasureOpts mo;
    mo.model_seconds = bench::model_circuit(fused, host).compute_seconds;
    mo.model_machine = host.name;
    const auto st = ctx.measure(
        std::string("host.diagfuse.") + (prefer ? "diag" : "dense"),
        [&] {
          sv::Simulator<double> sim;
          sim.run(fused);
        },
        mo);
    th.add_row({std::string(prefer ? "DIAG kernels" : "dense UNITARY"),
                static_cast<std::int64_t>(fused.size()), st.median});
  }
  ctx.table(th);
}

void ablation_scheduler(bench::BenchContext& ctx) {
  const auto m = machine::MachineSpec::a64fx();
  const auto net = dist::InterconnectSpec::tofu_d();
  Table t("C: communication scheduler (16 nodes, per-node GB exchanged)",
          {"workload", "naive_GB", "remap_GB", "naive_s", "remap_s"});
  const std::vector<std::pair<std::string, qc::Circuit>> workloads = {
      {"qft24", qc::qft(24)},
      {"qv24_8", qc::random_quantum_volume(24, 8, 5)},
      {"ghz24", qc::ghz(24)},
      {"qaoa24_p2", qc::qaoa_maxcut(24, qc::ring_graph(24), {0.8, 0.6},
                                    {0.4, 0.3})},
  };
  const auto timed = [&](const qc::Circuit& c, dist::CommScheduler sched) {
    dist::DistExecOptions o;
    o.scheduler = sched;
    o.restore_layout = false;
    return dist::time_plan(dist::compile_distributed(c, 4, o), m, {}, net);
  };
  for (const auto& [name, c] : workloads) {
    const auto tn = timed(c, dist::CommScheduler::Naive);
    const auto tr = timed(c, dist::CommScheduler::Remap);
    t.add_row({name, tn.exchange_bytes * 1e-9, tr.exchange_bytes * 1e-9,
               tn.total_seconds, tr.total_seconds});
    ctx.model("sched." + name + ".naive_gb", tn.exchange_bytes * 1e-9, "GB",
              m.name);
    ctx.model("sched." + name + ".remap_gb", tr.exchange_bytes * 1e-9, "GB",
              m.name);
  }
  ctx.table(t);
}

void ablation_kernel_variant(bench::BenchContext& ctx) {
  // Run-blocked 1q kernel (contiguous inner loops the vectorizer can chew)
  // vs. the per-pair insert_zero_bit variant. Host-measured.
  const unsigned n = ctx.smoke() ? 16 : 20;
  Xoshiro256 rng(2);
  const qc::Matrix u = qc::Matrix::random_unitary(2, rng);
  sv::StateVector<double> state(n);
  bench::spread_amplitudes(state);
  Table t("D: 1q kernel iteration scheme (host measured, n=" +
              std::to_string(n) + ")",
          {"target", "run_blocked_us", "per_pair_us", "speedup"});
  const std::vector<unsigned> targets =
      ctx.smoke() ? std::vector<unsigned>{0u, n - 2}
                  : std::vector<unsigned>{0u, 4u, 10u, n - 2};
  const double bytes = static_cast<double>(pow2(n)) * 2 * 16;
  for (unsigned target : targets) {
    BenchContext::MeasureOpts mo;
    mo.model_bytes = bytes;
    const auto tb = ctx.measure(
        bench::sub("kernel.blocked.t", target),
        [&] { sv::apply_gate(state, qc::Gate::unitary({target}, u)); },
        mo);
    const auto tp = ctx.measure(
        bench::sub("kernel.pairwise.t", target),
        [&] {
          sv::apply_matrix1_pairwise(state.data(), n, target, u,
                                     state.pool());
        },
        mo);
    t.add_row({static_cast<std::int64_t>(target), tb.median * 1e6,
               tp.median * 1e6, tp.median / tb.median});
  }
  ctx.table(t);
}

}  // namespace

SVSIM_BENCH(abl_design, "Ablations", "design-choice quantification") {
  ablation_line_size(ctx);
  ablation_diagonal_fusion(ctx);
  ablation_scheduler(ctx);
  ablation_kernel_variant(ctx);
}
