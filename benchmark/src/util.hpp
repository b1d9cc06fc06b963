// Shared types of the benchmark: command-line options, the report a
// workload fills, and the statistics and resource probes every workload
// uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the Chrome trace and the per-layer summary; empty = none.
  std::string out_dir;
  /// Time the one-time initialisation only, print it and exit (the child
  /// side of measure_setup).
  bool setup_only = false;
  /// How this program was started (argv[0]), to start set-up children.
  std::string program;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload process reports. `metrics` goes into the final JSON
/// line (end-to-end metrics untraced, per-layer metrics traced); `info`
/// is printed only.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a once-per-process oracle failed.
  bool oracles_ok = true;
  std::vector<std::string> failures;  ///< first few, for stderr
  std::vector<Metric> metrics;
  std::vector<Metric> info;

  /// Counts one operation; a wrong or failed outcome counts as failed.
  void op(bool ok, const std::string& what);
  /// An operation already counted turned out wrong on a later check.
  void fail(const std::string& what);
  /// A check that is not an operation of its own (an oracle run once).
  void oracle(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value, const std::string& unit);
};

/// Quantile with linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

/// Seconds of this process's one-time initialisation: the process-wide
/// thread pool, SIMD backend selection, and the workload's top-level object
/// (`construct`, whose result is destroyed after the clock stops). Only
/// the first call in a process measures a real first init.
double time_first_init(const std::function<std::shared_ptr<void>()>& construct);

/// One-time initialisation as a fresh process pays it: starts opt.program
/// with --setup-only for opt.workload `processes` times, one after the
/// other at even intervals over `window_s` seconds, and returns the seconds
/// each child printed. Throws if a child fails.
std::vector<double> measure_setup(const Options& opt, int processes,
                                  double window_s);

/// One-line description of the machine and build (obs::bench env capture
/// plus the LLC size from sysfs), printed with every run.
std::string env_stamp();

/// Runs body(thread, begin, end) over a static split of [0, n) on
/// `threads` threads (the same split every call, so first touch and later
/// passes agree) and joins them.
void parallel_split(
    unsigned threads, std::uint64_t n,
    const std::function<void(unsigned, std::uint64_t, std::uint64_t)>& body);

/// Deterministic generator for benchmark inputs (std::mt19937_64, so the
/// inputs do not depend on the program's own RNG).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : engine_(seed) {}
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return engine_() % n; }
  /// True with probability p.
  bool chance(double p) {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace bench
