// STREAM-triad probe of this machine's sustainable memory bandwidth, the
// denominator of the per-phase bandwidth fractions.
#pragma once

#include <cstdint>

namespace bench {

/// Size of the last-level cache read from sysfs (largest cache level of
/// cpu0), or 0 when sysfs does not say.
std::uint64_t llc_bytes_from_sysfs();

struct TriadResult {
  double gbps = 0.0;               ///< best pass, STREAM byte counting
  std::uint64_t array_bytes = 0;   ///< bytes of each of the three arrays
  std::uint64_t llc_bytes = 0;     ///< what the array size was derived from
  unsigned threads = 0;
  bool valid = false;              ///< the arrays hold the triad's result
};

/// a[i] = b[i] + s * c[i] with `threads` threads over three arrays of at
/// least four times the LLC each (first-touched by the thread that streams
/// them); several passes, the best one reported as STREAM does.
TriadResult run_triad(unsigned threads);

}  // namespace bench
