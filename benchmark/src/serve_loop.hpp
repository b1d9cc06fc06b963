// Closed-loop load generation through the program's serve protocol.
//
// svc::serve_session reads job lines from an istream and writes result
// lines to an ostream. The benchmark binds both to in-process line buffers:
// it hands a line to the istream only while fewer than `outstanding` jobs
// are in flight, stamps the time it did so, and stamps each result line as
// the session's writer emits it. Latency is the time between the two
// stamps. When the deadline passes it stops feeding, closes the input and
// drains what is still in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "svc/service.hpp"

#include "pipeline.hpp"

namespace bench {

/// Lazily generated, indexable job stream (the load loop may need any number
/// of jobs before the deadline).
class JobStream {
 public:
  explicit JobStream(std::function<JobSpec(std::size_t)> generate)
      : generate_(std::move(generate)) {}
  const JobSpec& at(std::size_t index);

 private:
  std::function<JobSpec(std::size_t)> generate_;
  std::vector<JobSpec> jobs_;
};

struct CompletedJob {
  double latency_s = 0.0;
  double job_s = 0.0;      ///< the result's timing.total_seconds
  double compile_s = 0.0;  ///< the result's timing.compile_seconds
  bool ok = false;
  std::size_t shots = 0;
};

struct LoopResult {
  std::size_t submitted = 0;
  std::vector<CompletedJob> completed;  ///< completion order
  /// First submission to last result line.
  double window_s = 0.0;
  std::uint64_t wrong = 0;              ///< outcomes other than expected
  std::vector<std::string> problems;    ///< first few wrong outcomes
  /// counts_digest of the jobs `keep_counts` selected, by stream index.
  std::map<std::size_t, std::uint64_t> kept_digests;
};

/// Order-independent digest of a counts histogram (sum of per-entry
/// FNV-1a hashes): equal histograms give equal digests, so a job's counts
/// can be checked later without keeping them.
std::uint64_t counts_digest(const std::map<std::string, std::size_t>& counts);

/// Runs one serve session on `service` for `seconds`, keeping `outstanding`
/// lines in flight. Each result is checked as it arrives: a malformed line
/// must come back bad_request, every other job ok with counts summing to
/// its shots.
LoopResult run_closed_loop(svsim::svc::Service& service, JobStream& stream,
                           unsigned outstanding, double seconds,
                           const std::function<bool(std::size_t)>& keep_counts);

}  // namespace bench
