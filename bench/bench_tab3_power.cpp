// Table 3 (reconstructed): A64FX power modes (normal / boost / eco).
//
// The Fugaku power knobs applied to two contrasting workloads: a bandwidth-
// bound plain QFT (eco should save energy nearly for free; boost should buy
// nothing) and a compute-bound heavily-fused quantum-volume circuit (boost:
// ~+10% speed for ~+17% power, the authors' published calibration point).
#include "bench_util.hpp"

#include "perf/power_model.hpp"
#include "qc/library.hpp"

using namespace svsim;

namespace {

void mode_table(bench::BenchContext& ctx, const std::string& key,
                const qc::Circuit& c, unsigned fusion_width,
                const char* title) {
  const std::vector<std::pair<std::string, machine::MachineSpec>> modes = {
      {"normal", machine::MachineSpec::a64fx()},
      {"boost", machine::MachineSpec::a64fx_boost()},
      {"eco", machine::MachineSpec::a64fx_eco()},
  };
  Table t(title, {"mode", "seconds", "watts", "joules", "EDP_Js",
                  "vs_normal_time", "vs_normal_power"});
  double t0 = 0.0, w0 = 0.0;
  for (const auto& [name, m] : modes) {
    const auto p =
        perf::estimate_power(bench::model_circuit(c, m, {}, fusion_width), m);
    if (name == "normal") {
      t0 = p.seconds;
      w0 = p.average_watts;
    }
    t.add_row({name, p.seconds, p.average_watts, p.joules,
               p.energy_delay_product(), p.seconds / t0,
               p.average_watts / w0});
    ctx.model(key + "." + name + ".s", p.seconds, "s", m.name);
    ctx.model(key + "." + name + ".watts", p.average_watts, "W", m.name);
    ctx.model(key + "." + name + ".joules", p.joules, "J", m.name);
  }
  ctx.table(t);
}

}  // namespace

SVSIM_BENCH(tab3_power, "Tab. 3", "A64FX power modes (model)") {
  mode_table(ctx, "qft27", qc::qft(27), 0,
             "Memory-bound: QFT(27), no fusion");
  mode_table(ctx, "qv20f5", qc::random_quantum_volume(20, 20, 3), 5,
             "Compute-bound: QV(20) depth 20, fusion width 5");
}
