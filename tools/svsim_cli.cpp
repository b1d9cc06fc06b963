// svsim — command-line front-end.
//
//   svsim run <circuit.qasm> [--shots N] [--backend sv|stab]
//             [--fusion W] [--blocked] [--block-qubits B] [--seed S]
//             [--trace-json FILE] [--trace] [--metrics] [--counters]
//             [--profile FILE]
//   svsim project <circuit.qasm | --qft N | --qv N D>
//             [--machine a64fx|a64fx-boost|a64fx-eco|fx700|xeon|tx2|host]
//             [--threads T] [--affinity compact|scatter] [--fusion W]
//             [--trace] [--drift]
//   svsim plan <circuit.qasm | --qft N | --qv N D>
//             [--ranks R] [--sched naive|remap] [--fusion W] [--blocked]
//             [--block-qubits B] [--machine NAME] [--dump-plan FILE]
//   svsim profile <circuit.qasm | --qft N | --qv N D>
//             [--ranks R] [--sched naive|remap] [--fusion W] [--blocked]
//             [--block-qubits B] [--machine NAME] [--threads T] [--seed S]
//             [--counters] [--json FILE] [--overlay FILE]
//             [--openmetrics FILE]
//   svsim timeline <circuit.qasm | --qft N | --qv N D>
//             [--ranks R] [--sched naive|remap] [--fusion W] [--blocked]
//             [--block-qubits B] [--machine NAME] [--threads T]
//             [--net tofu|edr] [--straggler NODE] [--slowdown X]
//             [--json FILE] [--trace-json FILE] [--metrics]
//   svsim serve [--jobs FILE] [--out FILE] [--machine NAME]
//             [--cache-bytes B] [--max-seconds S] [--threads T] [--metrics]
//   svsim machines
//
// `run` executes the circuit and prints measurement counts; `project`
// prints the modeled performance/power report for the chosen machine
// (`--drift` also executes the compiled plan under the phase profiler and
// prints the modeled-vs-measured comparison per phase and kernel); `plan`
// compiles the circuit into the ExecutionPlan IR (single-node, or
// distributed over --ranks R) and prints the phase
// summary, optionally dumping the plan JSON for `scripts/check_schema.py plan`
// (`--timeline FILE` also records the makespan timeline artifact);
// `profile` executes the compiled plan with the phase profiler riding
// sv::run_plan and prints/writes the measured-vs-modeled ProfileReport
// (`scripts/check_schema.py profile` validates the --json artifact);
// `timeline` records the event-driven makespan simulation per rank, prints
// the critical-path attribution and what-if sensitivity, and writes the
// timeline JSON artifact (`scripts/check_schema.py timeline` validates it)
// plus a multi-lane Chrome trace; `serve` runs the compile-once serve-many
// job loop — one JSON job per input line, one JSON result line per job
// plus a summary line
// (docs/SERVICE.md specifies the schema, `scripts/check_schema.py service`
// validates a captured session).
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/table.hpp"
#include "dist/dist_plan.hpp"
#include "dist/dist_sim.hpp"
#include "dist/timeline.hpp"
#include "machine/cache_probe.hpp"
#include "obs/bench/env.hpp"
#include "obs/hwcounters.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "perf/critical_path.hpp"
#include "perf/power_model.hpp"
#include "perf/profile_report.hpp"
#include "perf/report.hpp"
#include "sv/engine.hpp"
#include "qc/library.hpp"
#include "qc/qasm.hpp"
#include "stab/stabilizer.hpp"
#include "sv/plan.hpp"
#include "sv/simd/simd.hpp"
#include "sv/simulator.hpp"
#include "svc/service.hpp"

using namespace svsim;

namespace {

/// Declarative option table: every flag the CLI accepts, whether it
/// consumes the next token, and its help line. parse_args() rejects
/// anything not listed here, so a new flag that is added to a command but
/// not declared fails loudly instead of silently mis-parsing.
struct OptionSpec {
  const char* name;
  bool takes_value;
  /// `--qv N [D]`: may consume a second, numeric token (circuit depth).
  bool optional_second_numeric;
  const char* help;
};

constexpr OptionSpec kOptionSpecs[] = {
    {"shots", true, false, "number of measurement shots (run)"},
    {"backend", true, false, "sv | stab (run)"},
    {"precision", true, false,
     "f64 | f32 amplitude precision (run/plan/profile/serve)"},
    {"simd", true, false,
     "force the kernel backend: scalar|avx2|neon|sve (default: "
     "SVSIM_SIMD or runtime CPU detection)"},
    {"fusion", true, false, "enable gate fusion with max width W"},
    {"blocked", false, false, "cache-blocked sweep execution (run)"},
    {"block-qubits", true, false, "block size in qubits, 0 = auto (run)"},
    {"seed", true, false, "RNG seed"},
    {"machine", true, false, "machine model name (project)"},
    {"threads", true, false, "modeled thread count (project)"},
    {"affinity", true, false, "compact | scatter (project)"},
    {"qft", true, false, "use a QFT circuit of N qubits"},
    {"qv", true, true, "use a quantum-volume circuit of N qubits [depth D]"},
    {"ranks", true, false, "rank count (power of two) for `plan`"},
    {"sched", true, false, "naive | remap exchange scheduler (plan)"},
    {"dump-plan", true, false, "write the plan JSON to FILE ('-' = stdout)"},
    {"trace", false, false, "print the per-gate trace table"},
    {"trace-json", true, false, "write Chrome trace-event JSON to FILE (run)"},
    {"metrics", false, false, "print the runtime metrics registry (run)"},
    {"counters", false, false, "sample hardware counters around the run"},
    {"drift", false, false, "print modeled-vs-measured drift (project)"},
    {"profile", true, false,
     "profile the run's plan phases and write the report JSON to FILE (run)"},
    {"json", true, false, "write the profile report JSON to FILE (profile)"},
    {"overlay", true, false,
     "write the Chrome-trace phase overlay to FILE (profile)"},
    {"openmetrics", true, false,
     "dump the cumulative profile registry to FILE (profile)"},
    {"net", true, false, "tofu | edr interconnect model (timeline)"},
    {"straggler", true, false, "straggling node index (timeline)"},
    {"slowdown", true, false, "straggler compute slowdown factor (timeline)"},
    {"timeline", true, false,
     "record the makespan timeline and write the artifact JSON to FILE "
     "(plan/profile)"},
    {"jobs", true, false, "read job lines from FILE instead of stdin (serve)"},
    {"out", true, false, "write result lines to FILE instead of stdout (serve)"},
    {"cache-bytes", true, false, "plan-cache byte budget (serve)"},
    {"max-seconds", true, false,
     "admission ceiling on modeled compute seconds per job, default 60, 0 "
     "admits everything (serve)"},
};

const OptionSpec* find_option(const std::string& name) {
  for (const OptionSpec& spec : kOptionSpecs)
    if (name == spec.name) return &spec;
  return nullptr;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const { return options.count(name) > 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positional.push_back(a);
      continue;
    }
    const std::string name = a.substr(2);
    const OptionSpec* spec = find_option(name);
    require(spec != nullptr, "unknown option '--" + name + "'");
    if (!spec->takes_value) {
      args.options[name] = "";
      continue;
    }
    require(i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0,
            "option '--" + name + "' requires a value");
    args.options[name] = argv[++i];
    if (spec->optional_second_numeric && i + 1 < argc &&
        std::isdigit(static_cast<unsigned char>(argv[i + 1][0]))) {
      args.options[name + "_depth"] = argv[++i];
    }
  }
  return args;
}

machine::MachineSpec machine_by_name(const std::string& name) {
  if (name == "a64fx") return machine::MachineSpec::a64fx();
  if (name == "a64fx-boost") return machine::MachineSpec::a64fx_boost();
  if (name == "a64fx-eco") return machine::MachineSpec::a64fx_eco();
  if (name == "fx700") return machine::MachineSpec::a64fx_fx700();
  if (name == "xeon") return machine::MachineSpec::xeon_6148_dual();
  if (name == "tx2") return machine::MachineSpec::thunderx2_dual();
  if (name == "host") return obs::bench::host_spec();
  throw Error("unknown machine '" + name +
              "' (try a64fx, a64fx-boost, a64fx-eco, fx700, xeon, tx2, "
              "host)");
}

/// --precision: amplitude scalar size in bytes (f64 default).
unsigned element_bytes_from_args(const Args& args) {
  const std::string p = args.get("precision", "f64");
  if (p == "f64") return 8;
  if (p == "f32") return 4;
  throw Error("unknown precision '" + p + "' (f64, f32)");
}

qc::Circuit load_circuit(const Args& args) {
  if (args.flag("qft"))
    return qc::qft(static_cast<unsigned>(std::stoul(args.get("qft", "20"))));
  if (args.flag("qv")) {
    const auto n = static_cast<unsigned>(std::stoul(args.get("qv", "20")));
    const auto d =
        static_cast<unsigned>(std::stoul(args.get("qv_depth", "10")));
    return qc::random_quantum_volume(n, d, 1234);
  }
  require(!args.positional.empty(),
          "expected a .qasm file (or --qft N / --qv N D)");
  return qc::parse_qasm_file(args.positional.front());
}

/// Shared by `plan`, `profile`, and `timeline`: compiles the circuit into
/// an ExecutionPlan from the --ranks/--sched/--fusion/--blocked flags.
/// `machine` (optional) sizes auto blocks. A nonzero `ranks_override`
/// replaces --ranks (the timeline what-if recompiles at other widths).
sv::ExecutionPlan compile_plan_from_args(const Args& args,
                                         const qc::Circuit& circuit,
                                         const machine::MachineSpec* machine,
                                         std::uint64_t ranks_override = 0) {
  const auto ranks = ranks_override != 0
                         ? ranks_override
                         : std::stoull(args.get("ranks", "1"));
  require(ranks >= 1 && (ranks & (ranks - 1)) == 0,
          "--ranks must be a power of two");
  const unsigned node_qubits = ranks > 1 ? ilog2(ranks) : 0;

  sv::PlanOptions po;
  if (args.flag("fusion")) {
    po.fusion = true;
    po.fusion_width =
        static_cast<unsigned>(std::stoul(args.get("fusion", "3")));
  }
  if (args.flag("blocked") || args.flag("block-qubits")) {
    po.blocking = true;
    po.block_qubits =
        static_cast<unsigned>(std::stoul(args.get("block-qubits", "0")));
  }
  po.machine = machine;
  // f32 amplitudes halve the element footprint, so auto-sized blocks go
  // twice as deep for the same cache budget; the fingerprint (svc) and
  // plan JSON carry amp_bytes so precisions never mix.
  po.amp_bytes = 2 * element_bytes_from_args(args);

  sv::ExecutionPlan plan;
  if (node_qubits == 0) {
    plan = sv::compile_plan(circuit, po);
  } else {
    dist::DistExecOptions dopts;
    const std::string sched = args.get("sched", "remap");
    require(sched == "naive" || sched == "remap",
            "--sched must be naive or remap");
    dopts.scheduler = sched == "naive" ? dist::CommScheduler::Naive
                                       : dist::CommScheduler::Remap;
    dopts.plan = po;
    plan = dist::compile_distributed(circuit, node_qubits, dopts);
  }
  plan.validate();
  return plan;
}

dist::InterconnectSpec interconnect_by_name(const std::string& name) {
  if (name == "tofu") return dist::InterconnectSpec::tofu_d();
  if (name == "edr") return dist::InterconnectSpec::infiniband_edr();
  throw Error("unknown interconnect '" + name + "' (try tofu, edr)");
}

dist::StragglerConfig straggler_from_args(const Args& args) {
  dist::StragglerConfig s;
  if (args.flag("straggler")) {
    s.node = std::stoull(args.get("straggler", "0"));
    s.slowdown = std::stod(args.get("slowdown", "2"));
  }
  return s;
}

/// Records `plan`'s makespan timeline and writes the versioned JSON
/// artifact (per-rank events + critical path + what-if) to `path`
/// ('-' = stdout). Shared by `timeline --json`, `plan --timeline`, and
/// `profile --timeline`.
void write_timeline_artifact(const sv::ExecutionPlan& plan,
                             const machine::MachineSpec& m,
                             const machine::ExecConfig& cfg,
                             const dist::InterconnectSpec& net,
                             const dist::StragglerConfig& straggler,
                             const std::string& path) {
  const dist::Timeline tl = dist::record_timeline(plan, m, cfg, net, straggler);
  const perf::CriticalPath cp = perf::extract_critical_path(tl);
  const auto whatif = perf::whatif_sensitivity(tl);
  if (path == "-") {
    perf::write_timeline_json(tl, cp, whatif, std::cout);
    return;
  }
  std::ofstream out(path);
  require(out.good(), "cannot open '" + path + "' for writing");
  perf::write_timeline_json(tl, cp, whatif, out);
  std::cerr << "wrote timeline artifact (" << tl.num_ranks() << " ranks, "
            << tl.total_events() << " events) to " << path << "\n";
}

/// Prints the profile report's tables and warnings, shared by `profile`
/// and `run --profile`.
void print_profile_report(const perf::ProfileReport& report) {
  perf::profile_env_table(report).print(std::cout);
  perf::profile_phase_table(report).print(std::cout);
  perf::profile_attribution_table(report).print(std::cout);
  perf::drift_phase_table(report).print(std::cout);
  if (report.env.cache_budget_warning)
    std::cerr << "warning: probed per-core cache budget ("
              << (report.env.probed_cache_budget_bytes >> 10)
              << " KiB) disagrees with the MachineSpec declaration ("
              << (report.env.declared_cache_budget_bytes >> 10)
              << " KiB) by more than 25%; block sizing may be off\n";
  if (report.partial)
    std::cerr << "warning: tracer rings overflowed mid-run; the report is "
                 "marked partial\n";
}

/// Prints one `label : count` row per key, the label MSB-first over
/// `label_width` classical bits.
void print_counts(const std::map<std::uint64_t, std::size_t>& counts,
                  unsigned label_width) {
  for (const auto& [bits, count] : counts) {
    std::string label;
    for (unsigned b = label_width; b-- > 0;)
      label += ((bits >> b) & 1) ? '1' : '0';
    std::cout << label << " : " << count << "\n";
  }
}

int cmd_run(const Args& args) {
  qc::Circuit circuit = load_circuit(args);
  const auto shots =
      static_cast<std::size_t>(std::stoull(args.get("shots", "1024")));
  const std::string backend = args.get("backend", "sv");

  if (backend == "stab") {
    // The same split as the sv path: prepare the unitary part once, then
    // each shot measures a copy of the tableau into the circuit's cbits.
    const sv::ShotSplit split = sv::split_shots(circuit, {});
    require(split.mode == sv::ShotMode::Sampled,
            "--backend stab needs every measurement at the end (the "
            "circuit has a mid-circuit measure or a reset)");
    require(split.label_width <= 64,
            "--backend stab counts at most 64 classical bits");
    const stab::StabilizerState prepared = stab::run_clifford(split.circuit);
    Xoshiro256 rng(std::stoull(args.get("seed", "1")));
    std::map<std::uint64_t, std::size_t> counts;
    for (std::size_t s = 0; s < shots; ++s) {
      stab::StabilizerState state = prepared;
      std::uint64_t key = 0;
      for (const auto& [q, c] : split.measures)
        if (state.measure(q, rng)) key = set_bit(key, c);
      ++counts[key];
    }
    print_counts(counts, split.label_width);
    return 0;
  }

  sv::SimulatorOptions opts;
  opts.seed = std::stoull(args.get("seed", "1"));
  if (args.flag("fusion")) {
    opts.fusion = true;
    opts.fusion_width =
        static_cast<unsigned>(std::stoul(args.get("fusion", "3")));
  }
  if (args.flag("blocked") || args.flag("block-qubits")) {
    opts.blocking = true;
    opts.block_qubits =
        static_cast<unsigned>(std::stoul(args.get("block-qubits", "0")));
  }
  const unsigned label_width =
      sv::split_shots(circuit, opts.noise).label_width;

  const bool want_trace =
      args.flag("trace") || args.flag("trace-json");
  obs::Tracer& tracer = obs::Tracer::global();
  if (want_trace) {
    tracer.clear();
    tracer.enable();
  }
  if (args.flag("metrics")) {
    obs::MetricsRegistry::global().reset();
    ThreadPool::global().reset_stats();
    sv::simd::publish_metrics();
  }
  std::optional<obs::HwCounterScope> counters;
  if (args.flag("counters")) counters.emplace();

  // --profile: ride the plan executor with the phase profiler and capture
  // the compiled plans so measured samples can be joined with the model.
  std::optional<obs::Profiler> profiler;
  std::optional<sv::PlanCaptureScope> capture;
  if (args.flag("profile")) {
    profiler.emplace();
    profiler->install();
    capture.emplace();
  }

  require(backend == "sv", "unknown backend '" + backend + "' (sv, stab)");
  const bool f32 = element_bytes_from_args(args) == 4;
  auto run_counts = [&](auto& sim) {
    print_counts(sim.sample_counts(circuit, shots), label_width);
    // Batched trajectories record no plan phases: profile one trajectory.
    if (profiler && profiler->runs().empty()) sim.run(circuit);
  };
  if (f32) {
    sv::Simulator<float> sim(opts);
    run_counts(sim);
  } else {
    sv::Simulator<double> sim(opts);
    run_counts(sim);
  }

  if (profiler) {
    profiler->uninstall();
    const std::vector<obs::RunProfile> runs = profiler->runs();
    const std::vector<sv::ExecutionPlan> plans = capture->plans();
    capture.reset();
    require(!runs.empty() && !plans.empty(),
            "--profile: the run executed no plans to profile");
    // The most recent run and plan always correspond: the sampled run, or
    // the one profiled trajectory.
    const auto m = machine_by_name(args.get("machine", "a64fx"));
    machine::ExecConfig cfg;
    if (args.flag("threads"))
      cfg.threads =
          static_cast<unsigned>(std::stoul(args.get("threads", "0")));
    cfg.element_bytes = f32 ? 4 : 8;
    cfg.vector_bits = sv::simd::effective_vector_bits(cfg.element_bytes);
    const perf::ProfileReport report =
        perf::build_profile_report(runs.back(), plans.back(), m, cfg);
    const std::string path = args.get("profile", "profile.json");
    std::ofstream out(path);
    require(out.good(), "cannot open '" + path + "' for writing");
    perf::write_profile_json(report, out);
    std::cerr << "svsim: wrote profile report (" << report.phases.size()
              << " phases, drift x" << report.drift_ratio() << ") to " << path
              << "\n";
    if (report.partial)
      std::cerr << "warning: tracer rings overflowed mid-run; the profile "
                   "report is marked partial\n";
  }
  if (counters) obs::hw_counter_table(counters->stop()).print(std::cout);
  if (want_trace) {
    tracer.disable();
    if (tracer.dropped() > 0)
      std::cerr << "warning: tracer dropped " << tracer.dropped()
                << " spans to ring wraparound; the trace is incomplete\n";
    if (args.flag("trace")) obs::span_table(tracer.collect()).print(std::cout);
    if (args.flag("trace-json")) {
      const std::string path = args.get("trace-json", "trace.json");
      std::ofstream out(path);
      require(out.good(), "cannot open '" + path + "' for writing");
      tracer.write_chrome_json(out);
      std::cerr << "wrote " << tracer.collect().size() << " spans to " << path
                << (tracer.dropped() > 0
                        ? " (" + std::to_string(tracer.dropped()) +
                              " dropped to ring wraparound)"
                        : "")
                << "\n";
    }
  }
  if (args.flag("metrics")) {
    const PoolStats pool = ThreadPool::global().stats();
    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("pool.parallel_regions")
        .set(static_cast<double>(pool.parallel_regions));
    registry.gauge("pool.inline_regions")
        .set(static_cast<double>(pool.inline_regions));
    registry.gauge("pool.items").set(static_cast<double>(pool.items));
    registry.table().print(std::cout);
    if (want_trace)
      obs::kernel_bandwidth_table(tracer.collect()).print(std::cout);
  }
  return 0;
}

int cmd_project(const Args& args) {
  const qc::Circuit circuit = load_circuit(args);
  const auto m = machine_by_name(args.get("machine", "a64fx"));
  machine::ExecConfig cfg;
  if (args.flag("threads"))
    cfg.threads = static_cast<unsigned>(std::stoul(args.get("threads", "0")));
  if (args.get("affinity", "compact") == "scatter")
    cfg.affinity = machine::Affinity::Scatter;
  sv::PlanOptions po;
  if (args.flag("fusion")) {
    po.fusion = true;
    po.fusion_width =
        static_cast<unsigned>(std::stoul(args.get("fusion", "3")));
  }

  const sv::ExecutionPlan plan = sv::compile_plan(circuit, po);
  const perf::PlanCost cost = perf::cost_plan(plan, m, cfg);
  perf::summary_table(cost).print(std::cout);
  perf::kernel_breakdown_table(cost).print(std::cout);
  if (args.flag("trace")) perf::trace_table(cost).print(std::cout);
  perf::power_table({{m.name, perf::estimate_power(cost, m)}})
      .print(std::cout);

  if (args.flag("drift")) {
    // Execute the same plan for real with the phase profiler riding
    // run_plan and join the samples against its cost. The comparison is
    // honest only when the modeled machine resembles the host (`--machine
    // host`); the ratio column quantifies it.
    obs::Profiler profiler;
    profiler.install();
    sv::Simulator<double> sim;
    sv::StateVector<double> state(circuit.num_qubits());
    sim.run_plan(state, plan);
    profiler.uninstall();
    const std::vector<obs::RunProfile> runs = profiler.runs();
    require(!runs.empty(), "project: the run produced no profiled executions");
    const perf::ProfileReport report =
        perf::build_profile_report(runs.back(), plan, m, cfg);
    perf::drift_phase_table(report).print(std::cout);
  }
  return 0;
}

int cmd_plan(const Args& args) {
  const qc::Circuit circuit = load_circuit(args);
  std::optional<machine::MachineSpec> m;
  if (args.flag("machine")) m = machine_by_name(args.get("machine", "a64fx"));
  const sv::ExecutionPlan plan =
      compile_plan_from_args(args, circuit, m ? &*m : nullptr);

  std::size_t kind_count[4] = {0, 0, 0, 0};
  for (const auto& phase : plan.phases)
    ++kind_count[static_cast<std::size_t>(phase.kind)];

  Table t("Execution plan",
          {"qubits", "ranks", "block_q", "phases", "windows", "sweeps",
           "dense", "exchanges", "xGB/rank", "traversals", "gates/trav"});
  t.add_row({static_cast<std::int64_t>(plan.num_qubits),
             static_cast<std::int64_t>(plan.num_ranks()),
             static_cast<std::int64_t>(plan.block_qubits),
             static_cast<std::int64_t>(plan.phases.size()),
             static_cast<std::int64_t>(plan.num_windows()),
             static_cast<std::int64_t>(
                 kind_count[static_cast<std::size_t>(sv::PhaseKind::LocalSweep)]),
             static_cast<std::int64_t>(
                 kind_count[static_cast<std::size_t>(sv::PhaseKind::DenseGate)]),
             static_cast<std::int64_t>(plan.num_exchanges),
             plan.exchange_bytes_per_rank * 1e-9,
             static_cast<std::int64_t>(plan.traversals()),
             plan.gates_per_traversal()});
  t.print(std::cout);

  Table g("Gate placement",
          {"sweep_gates", "dense_gates", "free_gates", "measure_gates"});
  g.add_row({static_cast<std::int64_t>(plan.sweep_gates),
             static_cast<std::int64_t>(plan.dense_gates),
             static_cast<std::int64_t>(plan.free_gates),
             static_cast<std::int64_t>(plan.measure_gates)});
  g.print(std::cout);

  if (args.flag("dump-plan")) {
    const std::string path = args.get("dump-plan", "-");
    if (path == "-") {
      sv::write_plan_json(plan, std::cout);
    } else {
      std::ofstream out(path);
      require(out.good(), "cannot open '" + path + "' for writing");
      sv::write_plan_json(plan, out);
    }
  }
  if (args.flag("timeline")) {
    // The makespan model needs a concrete machine; default like the other
    // modeled commands when --machine was omitted.
    const machine::MachineSpec tm =
        m ? *m : machine_by_name(args.get("machine", "a64fx"));
    machine::ExecConfig cfg;
    if (args.flag("threads"))
      cfg.threads =
          static_cast<unsigned>(std::stoul(args.get("threads", "0")));
    write_timeline_artifact(plan, tm, cfg,
                            interconnect_by_name(args.get("net", "tofu")),
                            straggler_from_args(args),
                            args.get("timeline", "-"));
  }
  return 0;
}

int cmd_profile(const Args& args) {
  const qc::Circuit circuit = load_circuit(args);
  const auto m = machine_by_name(args.get("machine", "a64fx"));
  machine::ExecConfig cfg;
  if (args.flag("threads"))
    cfg.threads = static_cast<unsigned>(std::stoul(args.get("threads", "0")));
  cfg.element_bytes = element_bytes_from_args(args);
  cfg.vector_bits = sv::simd::effective_vector_bits(cfg.element_bytes);
  const sv::ExecutionPlan plan = compile_plan_from_args(args, circuit, &m);

  // Execute the plan for real with the profiler riding run_plan. The
  // tracer runs too so the Chrome overlay has gate spans to align with.
  obs::ProfilerOptions popts;
  popts.hw_counters = args.flag("counters");
  obs::Profiler profiler(popts);
  profiler.install();
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();

  sv::SimulatorOptions sopts;
  sopts.seed = std::stoull(args.get("seed", "1"));
  if (cfg.element_bytes == 4) {
    sv::Simulator<float> sim(sopts);
    sv::StateVector<float> state(circuit.num_qubits());
    sim.run_plan(state, plan);
  } else {
    sv::Simulator<double> sim(sopts);
    sv::StateVector<double> state(circuit.num_qubits());
    sim.run_plan(state, plan);
  }

  // Price the exchanges on the modeled interconnect while the profiler is
  // still installed: time_plan annotates the Exchange samples with the
  // simulated per-hop wire time.
  if (plan.node_qubits > 0)
    dist::time_plan(plan, m, cfg, dist::InterconnectSpec::tofu_d());

  tracer.disable();
  profiler.uninstall();
  const std::vector<obs::RunProfile> runs = profiler.runs();
  require(!runs.empty(), "profile: the run produced no profiled executions");
  const perf::ProfileReport report =
      perf::build_profile_report(runs.back(), plan, m, cfg);

  print_profile_report(report);

  if (args.flag("json")) {
    const std::string path = args.get("json", "-");
    if (path == "-") {
      perf::write_profile_json(report, std::cout);
    } else {
      std::ofstream out(path);
      require(out.good(), "cannot open '" + path + "' for writing");
      perf::write_profile_json(report, out);
      std::cerr << "wrote profile report to " << path << "\n";
    }
  }
  if (args.flag("overlay")) {
    const std::string path = args.get("overlay", "profile_trace.json");
    std::ofstream out(path);
    require(out.good(), "cannot open '" + path + "' for writing");
    obs::write_profile_chrome_json(out, tracer.collect(), runs);
    std::cerr << "wrote phase overlay to " << path << "\n";
  }
  if (args.flag("openmetrics")) {
    const std::string path = args.get("openmetrics", "-");
    if (path == "-") {
      obs::ProfileRegistry::global().write_openmetrics(std::cout);
    } else {
      std::ofstream out(path);
      require(out.good(), "cannot open '" + path + "' for writing");
      obs::ProfileRegistry::global().write_openmetrics(out);
    }
  }
  if (args.flag("timeline"))
    write_timeline_artifact(plan, m, cfg,
                            interconnect_by_name(args.get("net", "tofu")),
                            straggler_from_args(args),
                            args.get("timeline", "-"));
  tracer.clear();
  return 0;
}

int cmd_timeline(const Args& args) {
  const qc::Circuit circuit = load_circuit(args);
  const auto m = machine_by_name(args.get("machine", "a64fx"));
  machine::ExecConfig cfg;
  if (args.flag("threads"))
    cfg.threads = static_cast<unsigned>(std::stoul(args.get("threads", "0")));
  const sv::ExecutionPlan plan = compile_plan_from_args(args, circuit, &m);
  const dist::InterconnectSpec net =
      interconnect_by_name(args.get("net", "tofu"));
  const dist::StragglerConfig straggler = straggler_from_args(args);
  if (args.flag("metrics")) {
    obs::MetricsRegistry::global().reset();
    sv::simd::publish_metrics();
  }

  const dist::Timeline tl = dist::record_timeline(plan, m, cfg, net, straggler);
  const perf::CriticalPath cp = perf::extract_critical_path(tl);
  const std::vector<perf::WhatIfResult> whatif = perf::whatif_sensitivity(tl);

  perf::timeline_summary_table(tl, cp).print(std::cout);
  perf::rank_attribution_table(cp).print(std::cout);
  perf::critical_path_table(cp).print(std::cout);
  perf::whatif_table(whatif).print(std::cout);

  // Knobs the replay cannot price — they change the plan (rank count) or
  // the whole cost model (node throughput) — are recompiled/re-recorded.
  Table model("what-if (recompiled / remodeled)",
              {"scenario", "makespan [us]", "speedup"});
  auto add_scenario = [&](const std::string& name, double makespan) {
    model.add_row({name, makespan * 1e6,
                   makespan > 0.0 ? tl.makespan_seconds / makespan : 0.0});
  };
  const std::uint64_t ranks = plan.num_ranks();
  if (ilog2(ranks * 2) + 2 <= circuit.num_qubits()) {
    const sv::ExecutionPlan wide =
        compile_plan_from_args(args, circuit, &m, ranks * 2);
    add_scenario("ranks x2 (" + std::to_string(ranks * 2) + ", recompiled)",
                 dist::time_plan(wide, m, cfg, net, straggler)
                     .makespan_seconds);
  }
  if (ranks >= 2) {
    const sv::ExecutionPlan narrow =
        compile_plan_from_args(args, circuit, &m, ranks / 2);
    add_scenario("ranks /2 (" + std::to_string(ranks / 2) + ", recompiled)",
                 dist::time_plan(narrow, m, cfg, net, straggler)
                     .makespan_seconds);
  }
  add_scenario("node x2 (clock+bandwidth, remodeled)",
               dist::time_plan(plan, m.scaled(2.0, 2.0), cfg, net, straggler)
                   .makespan_seconds);
  model.print(std::cout);

  if (args.flag("json")) {
    const std::string path = args.get("json", "-");
    if (path == "-") {
      perf::write_timeline_json(tl, cp, whatif, std::cout);
    } else {
      std::ofstream out(path);
      require(out.good(), "cannot open '" + path + "' for writing");
      perf::write_timeline_json(tl, cp, whatif, out);
      std::cerr << "wrote timeline artifact to " << path << "\n";
    }
  }
  if (args.flag("trace-json")) {
    const std::string path = args.get("trace-json", "timeline_trace.json");
    std::ofstream out(path);
    require(out.good(), "cannot open '" + path + "' for writing");
    dist::write_timeline_chrome_json(out, tl);
    std::cerr << "wrote timeline Chrome trace (" << tl.num_ranks()
              << " rank lanes) to " << path << "\n";
  }
  if (args.flag("metrics")) obs::MetricsRegistry::global().table().print(std::cout);
  return 0;
}

int cmd_serve(const Args& args) {
  svc::ServiceOptions opts;
  opts.machine = machine_by_name(args.get("machine", "a64fx"));
  if (args.flag("cache-bytes"))
    opts.cache_bytes = std::stoull(args.get("cache-bytes", "0"));
  if (args.flag("max-seconds"))
    opts.max_modeled_seconds = std::stod(args.get("max-seconds", "0"));
  if (args.flag("threads")) {
    // For serve, --threads T doubles as the worker count: T executor
    // threads pull jobs concurrently (each with a ThreadPool slice), and
    // the admission model keeps pricing jobs at T modeled threads.
    opts.threads = static_cast<unsigned>(std::stoul(args.get("threads", "0")));
    opts.workers = std::max(1u, opts.threads);
  }
  if (args.flag("precision")) {
    element_bytes_from_args(args);  // validates the spelling
    opts.default_precision = args.get("precision", "f64");
  }
  if (args.flag("metrics")) {
    obs::MetricsRegistry::global().reset();
    sv::simd::publish_metrics();
  }
  svc::Service service(opts);

  std::ifstream jobs_file;
  std::istream* in = &std::cin;
  if (args.flag("jobs")) {
    const std::string path = args.get("jobs", "-");
    if (path != "-") {
      jobs_file.open(path);
      require(jobs_file.good(), "cannot open '" + path + "' for reading");
      in = &jobs_file;
    }
  }
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (args.flag("out")) {
    const std::string path = args.get("out", "-");
    if (path != "-") {
      out_file.open(path);
      require(out_file.good(), "cannot open '" + path + "' for writing");
      out = &out_file;
    }
  }

  const svc::ServeStats stats = svc::serve_session(*in, *out, service);
  std::cerr << "served " << stats.jobs << " jobs (" << stats.ok << " ok, "
            << stats.errors << " errors, " << stats.shots << " shots) on "
            << stats.workers << " worker(s); plan cache: "
            << service.cache().hits()
            << " hits, " << service.cache().misses() << " misses, "
            << service.cache().evictions() << " evictions\n";
  // Metrics go to stderr so the stdout stream stays pure line-JSON.
  if (args.flag("metrics"))
    obs::MetricsRegistry::global().table().print(std::cerr);
  return 0;
}

int cmd_machines() {
  Table t("Machine library",
          {"name", "cores", "GHz", "SIMD", "peak_GFLOPs", "STREAM_GBs"});
  for (const auto& m :
       {machine::MachineSpec::a64fx(), machine::MachineSpec::a64fx_boost(),
        machine::MachineSpec::a64fx_eco(),
        machine::MachineSpec::a64fx_fx700(),
        machine::MachineSpec::xeon_6148_dual(),
        machine::MachineSpec::thunderx2_dual(), obs::bench::host_spec()}) {
    t.add_row({m.name, static_cast<std::int64_t>(m.total_cores()),
               m.clock_ghz, static_cast<std::int64_t>(m.simd_bits),
               m.peak_gflops(), m.stream_bandwidth_gbps()});
  }
  t.print(std::cout);
  return 0;
}

void usage() {
  std::cerr <<
      "usage: svsim <command> [args]\n"
      "(every command also accepts --simd scalar|avx2|neon|sve to\n"
      " force the kernel backend, and run/plan/profile/serve accept\n"
      " --precision f64|f32 for the amplitude precision)\n"
      "  run <file.qasm|--qft N|--qv N D> [--shots N] [--backend sv|stab]\n"
      "      [--fusion W] [--blocked] [--block-qubits B] [--seed S]\n"
      "      [--trace-json FILE] [--trace] [--metrics] [--counters]\n"
      "  project <file.qasm|--qft N|--qv N D> [--machine NAME] [--threads T]\n"
      "      [--affinity compact|scatter] [--fusion W] [--trace] [--drift]\n"
      "  plan <file.qasm|--qft N|--qv N D> [--ranks R] [--sched naive|remap]\n"
      "      [--fusion W] [--blocked] [--block-qubits B] [--machine NAME]\n"
      "      [--dump-plan FILE] [--timeline FILE]\n"
      "  profile <file.qasm|--qft N|--qv N D> [--ranks R] [--sched naive|remap]\n"
      "      [--fusion W] [--blocked] [--block-qubits B] [--machine NAME]\n"
      "      [--threads T] [--seed S] [--counters] [--json FILE]\n"
      "      [--overlay FILE] [--openmetrics FILE] [--timeline FILE]\n"
      "  timeline <file.qasm|--qft N|--qv N D> [--ranks R] [--sched naive|remap]\n"
      "      [--fusion W] [--blocked] [--block-qubits B] [--machine NAME]\n"
      "      [--threads T] [--net tofu|edr] [--straggler NODE] [--slowdown X]\n"
      "      [--json FILE] [--trace-json FILE] [--metrics]\n"
      "  serve [--jobs FILE] [--out FILE] [--machine NAME] [--cache-bytes B]\n"
      "      [--max-seconds S] [--threads T (T serve workers)]\n"
      "      [--precision f64|f32] [--metrics]\n"
      "  machines\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    // --simd pins the kernel backend for everything the command executes
    // (run, profile, serve jobs, ...); an unavailable backend is a hard
    // error here, unlike the best-effort SVSIM_SIMD environment override.
    if (args.flag("simd")) {
      const std::string name = args.get("simd", "");
      require(sv::simd::select_backend(name),
              "SIMD backend '" + name +
                  "' is not available on this CPU/build (see `svsim "
                  "machines`; scalar always is)");
    }
    if (cmd == "run") return cmd_run(args);
    if (cmd == "project") return cmd_project(args);
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "profile") return cmd_profile(args);
    if (cmd == "timeline") return cmd_timeline(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "machines") return cmd_machines();
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
