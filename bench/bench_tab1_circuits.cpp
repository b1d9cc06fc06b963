// Table 1 (reconstructed): whole-circuit comparison across processors.
//
// QFT / GHZ / quantum-volume / QAOA circuits modeled on A64FX, dual-socket
// Xeon 6148 and dual ThunderX2. State-vector simulation is bandwidth-bound,
// so the expected ranking follows STREAM: A64FX (~830 GB/s) beats ThunderX2
// (~245) beats Xeon (~205), by roughly the bandwidth ratios. Host-measured
// wall times for smaller instances validate that the code actually runs.
#include "bench_util.hpp"

#include "qc/library.hpp"

using namespace svsim;

SVSIM_BENCH(tab1_circuits, "Tab. 1", "circuit suite across processors") {
  const unsigned n = 26;
  const std::vector<std::pair<std::string, qc::Circuit>> suite = {
      {"qft", qc::qft(n)},
      {"ghz", qc::ghz(n)},
      {"qv_d10", qc::random_quantum_volume(n, 10, 11)},
      {"qaoa_p2", qc::qaoa_maxcut(n, qc::ring_graph(n), {0.8, 0.6},
                                  {0.4, 0.3})},
  };
  const std::vector<std::pair<std::string, machine::MachineSpec>> machines = {
      {"a64fx", machine::MachineSpec::a64fx()},
      {"xeon", machine::MachineSpec::xeon_6148_dual()},
      {"tx2", machine::MachineSpec::thunderx2_dual()},
  };

  Table t("Model wall time (seconds), n=26, all cores, no fusion",
          {"circuit", "gates", "A64FX", "2xXeon6148", "2xTX2",
           "xeon/a64fx", "tx2/a64fx"});
  for (const auto& [name, c] : suite) {
    std::vector<double> secs;
    for (const auto& [key, m] : machines) {
      secs.push_back(bench::model_circuit(c, m).compute_seconds);
      ctx.model(key + "." + name + ".s", secs.back(), "s", m.name);
    }
    t.add_row({name, static_cast<std::int64_t>(c.size()), secs[0], secs[1],
               secs[2], secs[1] / secs[0], secs[2] / secs[0]});
  }
  ctx.table(t);

  Table tf("Model wall time (seconds), n=26, fusion width 4",
           {"circuit", "A64FX", "2xXeon6148", "2xTX2"});
  for (const auto& [name, c] : suite) {
    std::vector<Cell> row{name};
    for (const auto& [key, m] : machines) {
      const double s = bench::model_circuit(c, m, {}, 4).compute_seconds;
      row.push_back(s);
      ctx.model(key + "." + name + ".fused4.s", s, "s", m.name);
    }
    tf.add_row(std::move(row));
  }
  ctx.table(tf);

  // Host-measured small instances: real end-to-end runs.
  {
    const unsigned hn = ctx.smoke() ? 14 : 18;
    std::vector<std::pair<std::string, qc::Circuit>> small = {
        {"qft", qc::qft(hn)},
        {"ghz", qc::ghz(hn)},
    };
    if (!ctx.smoke())
      small.emplace_back("qv_d10", qc::random_quantum_volume(hn, 10, 11));
    const auto host = bench::host_spec();
    Table th("Host measured (seconds), n=" + std::to_string(hn),
             {"circuit", "plain", "fused4"});
    for (const auto& [name, c] : small) {
      BenchContext::MeasureOpts mo;
      mo.model_seconds = bench::model_circuit(c, host).compute_seconds;
      mo.model_machine = host.name;
      const auto plain = ctx.measure(
          "host." + name + ".plain",
          [&] {
            sv::Simulator<double> sim;
            sim.run(c);
          },
          mo);

      sv::SimulatorOptions fopts;
      fopts.fusion = true;
      fopts.fusion_width = 4;
      mo.model_seconds =
          bench::model_circuit(c, host, {}, 4).compute_seconds;
      const auto fused = ctx.measure(
          "host." + name + ".fused4",
          [&] {
            sv::Simulator<double> sim(fopts);
            sim.run(c);
          },
          mo);
      th.add_row({name, plain.median, fused.median});
    }
    ctx.table(th);
  }
}
