// A64FX performance projection: what would this circuit cost on Fugaku?
//
//   $ ./a64fx_projection [num_qubits]
//
// Takes a QFT workload, runs it for real on the host (small n), then uses
// the machine models to project single-node runtime, power, the effect of
// the boost/eco knobs and gate fusion, and the multi-node scaling over
// Tofu-D — the full performance-analysis pipeline of the library.
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "dist/dist_sim.hpp"
#include "perf/perf_simulator.hpp"
#include "perf/power_model.hpp"
#include "qc/library.hpp"
#include "sv/plan.hpp"
#include "sv/simulator.hpp"

using namespace svsim;

int main(int argc, char** argv) {
  const unsigned n = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 28;
  if (n < 4 || n > 33) {
    std::cerr << "usage: a64fx_projection [4..33]\n";
    return 1;
  }
  const qc::Circuit circuit = qc::qft(n);
  std::cout << "workload: QFT(" << n << "), " << circuit.size()
            << " gates, depth " << circuit.depth() << "\n\n";

  // Host reality check when the state fits comfortably.
  if (n <= 20) {
    sv::Simulator<double> sim;
    Timer t;
    sim.run(circuit);
    std::cout << "host measured wall time: " << t.seconds() << " s\n\n";
  }

  const auto a64fx = machine::MachineSpec::a64fx();

  // Single-node projection with and without fusion, all power modes.
  Table node("Single A64FX node projection",
             {"configuration", "seconds", "watts", "joules", "GFLOP/s",
              "GB/s"});
  for (const bool fusion : {false, true}) {
    for (const auto& m :
         {machine::MachineSpec::a64fx(), machine::MachineSpec::a64fx_boost(),
          machine::MachineSpec::a64fx_eco()}) {
      sv::PlanOptions po;
      po.fusion = fusion;
      po.fusion_width = 4;
      const auto r = perf::cost_plan(sv::compile_plan(circuit, po), m, {});
      const auto p = perf::estimate_power(r, m);
      node.add_row({m.name + (fusion ? " +fuse4" : ""), r.compute_seconds,
                    p.average_watts, p.joules, r.achieved_gflops(),
                    r.achieved_bandwidth_gbps()});
    }
  }
  node.print(std::cout);

  // Multi-node projection over Tofu-D.
  const auto tofu = dist::InterconnectSpec::tofu_d();
  Table multi("Multi-node projection (Tofu-D, remap scheduler)",
              {"nodes", "local_qubits", "exchanges", "compute_s", "comm_s",
               "total_s", "speedup"});
  const double single =
      perf::cost_plan(sv::compile_plan(circuit, {}), a64fx, {}).compute_seconds;
  multi.add_row({std::int64_t{1}, static_cast<std::int64_t>(n),
                 std::int64_t{0}, single, 0.0, single, 1.0});
  for (unsigned d = 2; d <= 8 && n - d >= 20; d += 2) {
    dist::DistExecOptions o;
    o.scheduler = dist::CommScheduler::Remap;
    o.restore_layout = false;
    const auto plan = dist::compile_distributed(circuit, d, o);
    const auto t = dist::time_plan(plan, a64fx, {}, tofu);
    multi.add_row({static_cast<std::int64_t>(plan.num_ranks()),
                   static_cast<std::int64_t>(n - d),
                   static_cast<std::int64_t>(t.num_exchanges),
                   t.compute_seconds, t.comm_seconds, t.total_seconds,
                   single / t.total_seconds});
  }
  multi.print(std::cout);

  std::cout << "note: model estimates; see DESIGN.md for the substitution\n"
               "of real A64FX hardware by calibrated analytical models.\n";
  return 0;
}
