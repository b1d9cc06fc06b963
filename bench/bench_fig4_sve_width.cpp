// Figure 4 (reconstructed): SVE vector-length sensitivity.
//
// The vector-length-agnostic sweep of the authors' SVE studies: the same
// kernel modeled at VL 128/256/512 bits. In the HBM regime the width is
// irrelevant (bandwidth-bound); in the cache regime longer vectors win, and
// the low-target permute penalty moves with the lane count.
#include "bench_util.hpp"

#include "perf/perf_simulator.hpp"
#include "qc/library.hpp"

using namespace svsim;

namespace {

void vl_table(bench::BenchContext& ctx, unsigned n, unsigned threads,
              const char* title) {
  const auto m = machine::MachineSpec::a64fx();
  Table t(title, {"target", "VL128_us", "VL256_us", "VL512_us",
                  "VL512_vs_128"});
  for (unsigned target : {0u, 1u, 2u, 4u, 8u, n - 2}) {
    std::vector<Cell> row;
    row.push_back(static_cast<std::int64_t>(target));
    double t128 = 0.0, t512 = 0.0;
    for (unsigned vl : {128u, 256u, 512u}) {
      machine::ExecConfig cfg;
      cfg.threads = threads;
      cfg.vector_bits = vl;
      const double s =
          perf::time_gate(qc::Gate::rx(target, 0.3), n, m, cfg).seconds;
      row.push_back(s * 1e6);
      if (vl == 128) t128 = s;
      if (vl == 512) t512 = s;
    }
    row.push_back(t128 / t512);
    t.add_row(std::move(row));
    ctx.model(bench::sub(bench::sub("a64fx.n", n) + ".rx.t", target) +
                  ".vl512_vs_128",
              t128 / t512, "ratio", m.name);
  }
  ctx.table(t);
}

}  // namespace

SVSIM_BENCH(fig4_sve_width, "Fig. 4", "SVE vector-length sweep (model)") {
  vl_table(ctx, 14, 1, "A64FX model, n=14, 1 core (L2-resident: VL matters)");
  vl_table(ctx, 20, 12, "A64FX model, n=20, one CMG (L2/HBM boundary)");
  vl_table(ctx, 28, 48, "A64FX model, n=28, 48 cores (HBM-bound: VL irrelevant)");

  // Whole-circuit view: a cache-resident circuit (VL visible) vs. an
  // HBM-resident one (VL hidden by bandwidth).
  {
    const auto m = machine::MachineSpec::a64fx();
    Table t("A64FX model: circuit wall time vs. vector length",
            {"workload", "VL_bits", "ms", "GFLOP/s"});
    const std::vector<std::tuple<std::string, std::string, qc::Circuit,
                                 unsigned>>
        cases = {{"QFT(14), 1 core, fused4", "qft14_1c", qc::qft(14), 1u},
                 {"QFT(24), 48 cores", "qft24_48c", qc::qft(24), 0u}};
    for (const auto& [name, key, c, threads] : cases) {
      for (unsigned vl : {128u, 256u, 512u}) {
        machine::ExecConfig cfg;
        cfg.vector_bits = vl;
        cfg.threads = threads;
        // Fusion (width 4) makes the small case FP-bound.
        const auto r = bench::model_circuit(c, m, cfg, threads == 1 ? 4 : 0);
        t.add_row({name, static_cast<std::int64_t>(vl),
                   r.compute_seconds * 1e3, r.achieved_gflops()});
        ctx.model(bench::sub("a64fx." + key + ".vl", vl) + ".s",
                  r.compute_seconds, "s", m.name);
      }
    }
    ctx.table(t);
  }
}
