#include "util.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "common/threading.hpp"
#include "obs/bench/env.hpp"
#include "sv/simd/simd.hpp"

#include "triad.hpp"

namespace bench {

namespace {
constexpr std::size_t kMaxFailuresKept = 8;
}  // namespace

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < kMaxFailuresKept) failures.push_back(what);
}

void Report::oracle(bool ok, const std::string& what) {
  if (ok) return;
  oracles_ok = false;
  if (failures.size() < kMaxFailuresKept) failures.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  info.push_back({name, value, unit});
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string env_stamp() {
  namespace env = svsim::obs::bench;
  env::set_simd_env_provider([] {
    const auto backend = svsim::sv::simd::active_backend();
    return env::SimdEnvInfo{backend.name, backend.vector_bits};
  });
  const env::BenchEnv e = env::capture_env();
  return "cpu_isa=" + e.cpu_isa + " simd_backend=" + e.simd_backend +
         " nproc=" + std::to_string(e.hw_concurrency) +
         " llc_bytes=" + std::to_string(llc_bytes_from_sysfs()) +
         " compiler=" + e.compiler + " build=" + e.build_type;
}

void parallel_split(
    unsigned threads, std::uint64_t n,
    const std::function<void(unsigned, std::uint64_t, std::uint64_t)>& body) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t)
    workers.emplace_back(body, t, n * t / threads, n * (t + 1) / threads);
  for (auto& w : workers) w.join();
}

double time_first_init(const std::function<std::shared_ptr<void>()>& construct) {
  const auto t0 = Clock::now();
  svsim::ThreadPool::global();
  svsim::sv::simd::active_backend();
  const std::shared_ptr<void> program = construct();
  return seconds_between(t0, Clock::now());
}

namespace {

/// Runs one set-up child and returns the seconds it printed.
double setup_child(const Options& opt) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up child: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {opt.program, "--workload", opt.workload,
                                   "--setup-only", "1"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawnp(&pid, opt.program.c_str(), &actions,
                                   nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  while (spawned == 0) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  if (spawned != 0)
    throw std::runtime_error("set-up child: cannot start " + opt.program);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  char* end = nullptr;
  const double seconds = std::strtod(out.c_str(), &end);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || end == out.c_str() ||
      !(seconds > 0))
    throw std::runtime_error("set-up child failed: " + out);
  return seconds;
}

}  // namespace

std::vector<double> measure_setup(const Options& opt, int processes,
                                  double window_s) {
  // The host's speed drifts within a second, so children started back to
  // back all see one moment of it; spreading them over the window makes
  // their median repeat from run to run.
  const auto start = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s / processes));
  std::vector<double> samples;
  for (int i = 0; i < processes; ++i) {
    std::this_thread::sleep_until(start + i * interval);
    samples.push_back(setup_child(opt));
  }
  return samples;
}

}  // namespace bench
