// Microkernels: real host measurements of the hot kernels.
//
// These complement the model tables with statistically solid wall-clock
// numbers on whatever machine builds the repo (used to validate that the
// kernels genuinely stream at memory speed and that fusion raises per-byte
// work). The achieved-GB/s column comes from the harness' attribution join.
#include "bench_util.hpp"

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "qc/matrix.hpp"
#include "sv/simulator.hpp"

using namespace svsim;

SVSIM_BENCH(micro_kernels, "Micro", "hot-kernel wall-clock on the host") {
  const unsigned n = ctx.smoke() ? 16 : 18;  // 4 MiB state: out of L2
  sv::StateVector<double> state(n);
  bench::spread_amplitudes(state);
  const double bytes = static_cast<double>(pow2(n)) * 32;  // rd+wr complex

  Table t("Hot kernels, n=" + std::to_string(n),
          {"kernel", "median_us", "rel_ci95", "GB/s"});
  auto row = [&](const std::string& name, const obs::bench::SampleStats& st,
                 double b) {
    t.add_row({name, st.median * 1e6, st.rel_ci95,
               bench::measured_bandwidth_gbps(b, st.median)});
  };

  {
    const std::vector<unsigned> targets =
        ctx.smoke() ? std::vector<unsigned>{0u, n - 1}
                    : std::vector<unsigned>{0u, 4u, n - 1};
    for (unsigned target : targets) {
      BenchContext::MeasureOpts mo;
      mo.model_bytes = bytes;
      const auto st = ctx.measure(
          bench::sub("h.t", target),
          [&] { sv::apply_gate(state, qc::Gate::h(target)); }, mo);
      row(bench::sub("h t=", target), st, bytes);
    }
  }
  {
    BenchContext::MeasureOpts mo;
    mo.model_bytes = bytes;
    const auto st = ctx.measure(
        "x.t9", [&] { sv::apply_gate(state, qc::Gate::x(9)); }, mo);
    row("x t=9", st, bytes);
  }
  {
    const auto st = ctx.measure(
        "diag.t9", [&] { sv::apply_gate(state, qc::Gate::s(9)); });
    row("diag t=9", st, bytes);
  }
  {
    const auto st = ctx.measure(
        "cx.c3.t11", [&] { sv::apply_gate(state, qc::Gate::cx(3, 11)); });
    row("cx 3->11", st, bytes / 2);
  }
  {
    Xoshiro256 rng(1);
    const qc::Matrix u = qc::Matrix::random_unitary(4, rng);
    BenchContext::MeasureOpts mo;
    mo.model_bytes = bytes;
    const auto st = ctx.measure("matrix2.t3.t11", [&] {
      sv::apply_gate(state, qc::Gate::unitary({3, 11}, u));
    }, mo);
    row("matrix2 3,11", st, bytes);
  }
  for (unsigned k = 2; k <= 5; ++k) {
    if (ctx.smoke() && k != 2 && k != 4) continue;
    Xoshiro256 rng(k);
    std::vector<unsigned> qs;
    for (unsigned i = 0; i < k; ++i) qs.push_back(2 * i + 1);
    const qc::Gate fused =
        qc::Gate::unitary(qs, qc::Matrix::random_unitary(pow2(k), rng));
    BenchContext::MeasureOpts mo;
    mo.model_bytes = bytes;
    const auto st = ctx.measure(bench::sub("fused.k", k), [&] {
      sv::apply_gate(state, fused);
    }, mo);
    row(bench::sub("fused k=", k), st, bytes);
  }
  {
    const auto st =
        ctx.measure("norm_squared", [&] { (void)state.norm_squared(); });
    row("norm_squared", st, bytes / 2);
  }
  ctx.table(t);
}
