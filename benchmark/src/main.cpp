// svsim benchmark: runs one workload in this process and reports it.
//
//   svsim_benchmark --workload W --seed N --seconds S --trace 0|1
//                   [--out-dir DIR]
//
// Prints `workload metric value unit` lines (metrics, then informational
// values), then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 the workload runs untraced once more and is then replayed
// with spans (see layers.hpp), and the metrics are the per-layer ones.
//
// `svsim_benchmark --workload W --setup-only 1` only times this process's
// one-time initialisation for W and prints the seconds; the untraced run
// starts such children to measure setup_s.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util.hpp"
#include "workloads.hpp"

namespace {

using bench::Options;
using bench::Report;

/// Fresh processes whose one-time init setup_s is the median of, and the
/// seconds they are spread over.
constexpr int kSetupProcesses = 41;
constexpr double kSetupWindowS = 2.0;

struct Workload {
  Report (*run)(const Options&);
  std::shared_ptr<void> (*construct)();
};

const std::map<std::string, Workload> kWorkloads = {
    {"qv_large", {bench::run_qv_large, bench::construct_large}},
    {"qft_large", {bench::run_qft_large, bench::construct_large}},
    {"svc_sampled", {bench::run_svc_sampled, bench::construct_svc_sampled}},
    {"svc_trajectory",
     {bench::run_svc_trajectory, bench::construct_svc_trajectory}},
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "svsim_benchmark: " << problem
            << "\nusage: svsim_benchmark --workload "
               "qv_large|qft_large|svc_sampled|svc_trajectory --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.program = argv[0];
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) usage("bad --seconds " + value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else if (key == "--setup-only") {
      opt.setup_only = value == "1";
    } else {
      usage("unknown argument " + key);
    }
  }
  if (kWorkloads.count(opt.workload) == 0)
    usage("unknown workload '" + opt.workload + "'");
  if (!have_seed && !opt.setup_only) usage("--seed is required");
  return opt;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Median seconds of a fixed single-thread integer loop: how fast this host
/// runs plain code at the moment. Printed before and after the workload so
/// a run taken while the shared host was slow can be told apart from a
/// change in the program.
double host_probe_s() {
  std::vector<double> samples;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = bench::Clock::now();
    std::uint64_t x = 1;
    for (std::uint32_t k = 0; k < (1u << 24); ++k)
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    volatile std::uint64_t sink = x;
    (void)sink;
    samples.push_back(bench::seconds_between(t0, bench::Clock::now()));
  }
  return bench::median(std::move(samples));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const Workload& workload = kWorkloads.at(opt.workload);
  if (opt.setup_only) {
    std::cout << number(bench::time_first_init(workload.construct))
              << std::endl;
    return 0;
  }
  Report report;
  try {
    // Before anything else runs here, so the children share the host with
    // an idle parent.
    const std::vector<double> setup =
        opt.trace ? std::vector<double>{}
                  : bench::measure_setup(opt, kSetupProcesses, kSetupWindowS);
    const double probe_before = host_probe_s();
    report = workload.run(opt);
    report.note("host.cpu_probe_before_s", probe_before, "s");
    if (!setup.empty()) report.metric("setup_s", bench::median(setup), "s");
  } catch (const std::exception& e) {
    std::cerr << "svsim_benchmark: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  report.note("host.cpu_probe_after_s", host_probe_s(), "s");
  std::cout << opt.workload << " env " << bench::env_stamp() << "\n";

  bool finite = true;
  for (const auto* list : {&report.metrics, &report.info})
    for (const bench::Metric& m : *list) {
      finite = finite && std::isfinite(m.value);
      std::cout << opt.workload << " " << m.name << " " << number(m.value)
                << " " << m.unit << "\n";
    }
  for (const std::string& f : report.failures)
    std::cerr << "svsim_benchmark: " << opt.workload << ": " << f << "\n";

  const bool correct =
      report.failed == 0 && report.oracles_ok && finite && report.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const bench::Metric& m : report.metrics) {
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << (std::isfinite(m.value) ? number(m.value) : "0")
              << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
