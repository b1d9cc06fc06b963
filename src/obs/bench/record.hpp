// Structured benchmark records and their JSON serialization.
//
// One `BenchRecord` is one number the harness stands behind: a measured
// statistic (with its full sample set) or a model prediction, identified by
// a stable ID that baselines and the regression gate key on. Records are
// emitted two ways: one JSONL line per benchmark case (append-friendly,
// stream-processable) and one aggregate `BENCH_results.json` keyed by
// record ID (what `scripts/bench_compare.py` diffs against a baseline).
// `scripts/check_schema.py bench` validates both renderings in ctest.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/bench/env.hpp"
#include "obs/bench/stats.hpp"

namespace svsim::obs::bench {

/// Optional join of a measured record against the runtime observability
/// substrate: metrics-registry byte counts, tracer spans, and hardware
/// counters sampled around one instrumented repetition.
struct BenchAttribution {
  bool present = false;

  double bytes_per_rep = 0;        ///< sv.bytes_streamed delta (0 = n/a)
  double kernel_spans_per_rep = 0; ///< tracer Kernel/Measure spans seen
  double span_bytes_per_rep = 0;   ///< bytes estimate summed over spans
  bool trace_partial = false;      ///< spans were dropped; join unreliable
  std::uint64_t dropped_spans = 0;

  bool hw_valid = false;  ///< hardware counters were available
  double cycles_per_rep = 0;
  double instructions_per_rep = 0;
  double llc_misses_per_rep = 0;

  double achieved_gbps = 0;  ///< bytes_per_rep / measured median
  double model_gbps = 0;     ///< host bandwidth-model expectation
};

/// One benchmark number. `kind` is "measured" (value = median seconds or a
/// derived unit, with stats retained), "model" (an analytical prediction,
/// deterministic run to run), or "derived" (computed from measured values —
/// e.g. a speedup ratio of two medians — so it inherits measurement noise
/// and regression gates must give it the measured margin, not exact
/// equality). Measured records may carry the model's prediction of the
/// same quantity in `model_value`, making model-vs-measured drift
/// queryable directly from the results file.
struct BenchRecord {
  std::string id;       ///< stable: "<case>.<sub-id>"
  std::string case_id;
  std::string kind;     ///< "measured" | "model" | "derived"
  std::string unit;     ///< "s", "GB/s", "GFLOP/s", ...
  double value = 0;

  bool has_stats = false;
  SampleStats stats;

  bool has_model = false;
  double model_value = 0;
  std::string model_machine;  ///< machine spec the model number is for

  BenchAttribution attr;
};

/// One executed case: its records plus the rendered tables (the
/// human-readable view kept in bench_output.txt).
struct CaseResult {
  std::string id;
  std::string title;
  std::string description;
  bool failed = false;
  std::string error;
  std::vector<BenchRecord> records;
  std::vector<std::string> rendered_tables;
  double wall_seconds = 0;
};

/// JSON-escapes `s` (control characters, quotes, backslashes).
std::string json_escape(const std::string& s);

/// Writes one record as a JSON object (no trailing newline).
void write_record_json(std::ostream& os, const BenchRecord& r);

/// Writes the environment as a JSON object.
void write_env_json(std::ostream& os, const BenchEnv& env);

/// Aggregate results document: schema_version, mode, env, cases index,
/// and every record keyed by its stable ID.
void write_results_json(std::ostream& os, const BenchEnv& env,
                        const std::string& mode,
                        const std::vector<CaseResult>& cases);

/// One JSONL line per case: {"case":..,"title":..,"env":{..},"records":[..]}.
void write_results_jsonl(std::ostream& os, const BenchEnv& env,
                         const std::string& mode,
                         const std::vector<CaseResult>& cases);

}  // namespace svsim::obs::bench
