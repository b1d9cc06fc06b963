// Figure 6 (reconstructed): multi-node weak scaling over Tofu-D.
//
// Weak scaling with a fixed 2^24 local partition per node: at 2^d nodes the
// register has 24+d qubits. A QFT workload (every qubit touched repeatedly)
// is planned under the naive pair-exchange scheduler and the Belady qubit-
// remapping scheduler; the figure reports compute/comm split and the
// parallel efficiency of each.
#include "bench_util.hpp"

#include "dist/dist_sim.hpp"
#include "qc/library.hpp"

using namespace svsim;

namespace {

void weak_scaling(bench::BenchContext& ctx, const dist::InterconnectSpec& net,
                  unsigned max_d) {
  const auto m = machine::MachineSpec::a64fx();
  const unsigned local = 24;
  Table t("Weak scaling, QFT, 2^24 amplitudes per node (" + net.name + ")",
          {"nodes", "n", "sched", "exchanges", "GB/node", "compute_s",
           "comm_s", "total_s", "comm_share"});
  for (unsigned d = 0; d <= max_d; d += 3) {
    const unsigned n = local + d;
    const qc::Circuit c = qc::qft(n);
    if (d == 0) {
      const double s = bench::model_circuit(c, m).compute_seconds;
      t.add_row({std::int64_t{1}, static_cast<std::int64_t>(n),
                 std::string("-"), std::int64_t{0}, 0.0, s, 0.0, s, 0.0});
      ctx.model(net.name + ".nodes1.total_s", s, "s", m.name);
      continue;
    }
    for (auto sched :
         {dist::CommScheduler::Naive, dist::CommScheduler::Remap}) {
      dist::DistExecOptions o;
      o.scheduler = sched;
      o.restore_layout = false;
      const auto plan = dist::compile_distributed(c, d, o);
      const auto dt = dist::time_plan(plan, m, {}, net);
      t.add_row({static_cast<std::int64_t>(plan.num_ranks()),
                 static_cast<std::int64_t>(n),
                 std::string(dist::scheduler_name(sched)),
                 static_cast<std::int64_t>(dt.num_exchanges),
                 dt.exchange_bytes * 1e-9, dt.compute_seconds,
                 dt.comm_seconds, dt.total_seconds,
                 dt.comm_seconds / dt.total_seconds});
      ctx.model(bench::sub(net.name + ".nodes", plan.num_ranks()) + "." +
                    dist::scheduler_name(sched) + ".total_s",
                dt.total_seconds, "s", m.name);
    }
  }
  ctx.table(t);
}

}  // namespace

SVSIM_BENCH(fig6_distributed, "Fig. 6", "distributed weak scaling (model)") {
  const unsigned max_d = ctx.smoke() ? 6 : 9;
  weak_scaling(ctx, dist::InterconnectSpec::tofu_d(), max_d);
  weak_scaling(ctx, dist::InterconnectSpec::infiniband_edr(), max_d);

  // Straggler propagation: the per-rank clocks' contribution.
  {
    const auto m = machine::MachineSpec::a64fx();
    const auto net = dist::InterconnectSpec::tofu_d();
    const qc::Circuit c = qc::qft(22);
    dist::DistExecOptions o;
    o.scheduler = dist::CommScheduler::Naive;
    o.restore_layout = false;
    const auto plan = dist::compile_distributed(c, 4, o);
    Table t("Straggler propagation (16 nodes, one slow node, QFT(22))",
            {"slowdown", "makespan_ms", "vs_clean"});
    const double clean = dist::time_plan(plan, m, {}, net).makespan_seconds;
    for (double slow : {1.0, 1.5, 2.0, 4.0}) {
      dist::StragglerConfig s;
      s.node = 3;
      s.slowdown = slow;
      const double ms = dist::time_plan(plan, m, {}, net, s).makespan_seconds;
      t.add_row({slow, ms * 1e3, ms / clean});
      ctx.model(bench::sub("straggler.x", static_cast<unsigned>(slow * 10)) +
                    ".vs_clean",
                ms / clean, "ratio", m.name);
    }
    ctx.table(t);
  }
}
