// Table 2 (reconstructed): gate-fusion impact.
//
// A quantum-volume circuit fused at widths 1..5. Dense fusion of a QV layer
// raises arithmetic intensity ~2^k/4: on A64FX (ridge ~3.7 flop/byte) the
// model improves until fused kernels cross the ridge around width 4, while
// on a weak-compute host (ridge below 1 flop/byte) it turns the kernels
// compute-bound and hurts. The fusion pass keeps a merge only when the
// merged gate's kernel price is below its parts' (sv/fusion.hpp), so it
// declines the disjoint-pair merges and the width sweep stays near 1x on
// both columns.
#include "bench_util.hpp"

#include "qc/library.hpp"
#include "sv/fusion.hpp"

using namespace svsim;

SVSIM_BENCH(tab2_fusion, "Tab. 2", "gate-fusion impact (QV circuit)") {
  {
    const unsigned n = 26;
    const qc::Circuit c = qc::random_quantum_volume(n, 10, 3);
    const auto m = machine::MachineSpec::a64fx();
    Table t("A64FX model, QV n=26 depth=10",
            {"fusion_width", "gates", "mean_AI", "model_s", "speedup"});
    double base = 0.0;
    for (unsigned width = 1; width <= 5; ++width) {
      sv::FusionOptions fo;
      fo.max_width = width;
      const qc::Circuit fused = sv::fuse(c, fo);
      const auto r = bench::model_circuit(fused, m);  // already fused
      if (width == 1) base = r.compute_seconds;
      t.add_row({static_cast<std::int64_t>(width),
                 static_cast<std::int64_t>(fused.size()),
                 r.total_flops / r.total_bytes, r.compute_seconds,
                 base / r.compute_seconds});
      ctx.model(bench::sub("a64fx.qv26.w", width) + ".s", r.compute_seconds,
                "s", m.name);
    }
    ctx.table(t);
  }

  {
    const unsigned n = ctx.smoke() ? 14 : 19;
    const unsigned depth = ctx.smoke() ? 4 : 8;
    const qc::Circuit c = qc::random_quantum_volume(n, depth, 3);
    const auto host = bench::host_spec();
    machine::ExecConfig host_cfg;
    Table t("Host: measured vs. host-model prediction, QV n=" +
                std::to_string(n) + " depth=" + std::to_string(depth),
            {"fusion_width", "gates", "measured_s", "measured_speedup",
             "model_speedup"});
    double base = 0.0, model_base = 0.0;
    for (unsigned width = 1; width <= 5; ++width) {
      if (ctx.smoke() && width != 1 && width != 4) continue;
      sv::FusionOptions fo;
      fo.max_width = width;
      const qc::Circuit fused = sv::fuse(c, fo);
      const double model_s =
          bench::model_circuit(fused, host, host_cfg).compute_seconds;
      BenchContext::MeasureOpts mo;
      mo.model_seconds = model_s;
      mo.model_machine = host.name;
      const auto st = ctx.measure(
          bench::sub("host.qv.w", width),
          [&] {
            sv::Simulator<double> sim;
            sim.run(fused);
          },
          mo);
      if (base == 0.0) {
        base = st.median;
        model_base = model_s;
      }
      t.add_row({static_cast<std::int64_t>(width),
                 static_cast<std::int64_t>(fused.size()), st.median,
                 base / st.median, model_base / model_s});
    }
    ctx.table(t);
  }
}
