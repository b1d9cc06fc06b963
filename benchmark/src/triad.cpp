#include "triad.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util.hpp"

namespace bench {

namespace {

constexpr int kPasses = 6;
constexpr std::uint64_t kFallbackLlcBytes = 32ull << 20;

std::uint64_t parse_cache_size(const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return 0;
  switch (*end) {
    case 'K': return value << 10;
    case 'M': return value << 20;
    case 'G': return value << 30;
    default: return value;
  }
}

}  // namespace

std::uint64_t llc_bytes_from_sysfs() {
  std::uint64_t best_level = 0, best_bytes = 0;
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_in(dir + "/level"), size_in(dir + "/size");
    std::uint64_t level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size)) break;
    if (level >= best_level) {
      best_level = level;
      best_bytes = parse_cache_size(size);
    }
  }
  return best_bytes;
}

TriadResult run_triad(unsigned threads) {
  TriadResult result;
  result.threads = std::max(1u, threads);
  result.llc_bytes = llc_bytes_from_sysfs();
  const std::uint64_t llc =
      result.llc_bytes != 0 ? result.llc_bytes : kFallbackLlcBytes;
  const std::uint64_t n = 4 * llc / sizeof(double) + 1;
  result.array_bytes = n * sizeof(double);

  // Uninitialised storage, first-touched by the threads that stream it.
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  parallel_split(result.threads, n,
                 [=](unsigned, std::uint64_t lo, std::uint64_t hi) {
                   for (std::uint64_t i = lo; i < hi; ++i) {
                     pa[i] = 0.0;
                     pb[i] = 1.0;
                     pc[i] = 2.0;
                   }
                 });

  const double scalar = 3.0;
  double best = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto t0 = Clock::now();
    parallel_split(result.threads, n,
                   [=](unsigned, std::uint64_t lo, std::uint64_t hi) {
                     for (std::uint64_t i = lo; i < hi; ++i)
                       pa[i] = pb[i] + scalar * pc[i];
                   });
    const double s = seconds_between(t0, Clock::now());
    best = std::max(best, 3.0 * static_cast<double>(result.array_bytes) / s);
  }
  result.gbps = best * 1e-9;
  result.valid = pa[0] == 7.0 && pa[n - 1] == 7.0;
  return result;
}

}  // namespace bench
