// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into the program's
// public functions (the program itself is not instrumented). Each span
// keeps its name, start, end, parent and job id; the set is written out as
// Chrome trace-event JSON and summarised per layer (count, total time, self
// time = duration minus the time its child spans cover) when the run ends.
// Single-threaded: the traced pipeline replays jobs on one thread.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util.hpp"

namespace bench {

class Spans {
 public:
  struct Span {
    const char* name = "";  ///< string literal
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;  ///< recording index of the parent, -1 = root
    std::uint64_t job = 0;
  };

  struct LayerTotal {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// A disabled recorder makes every Scope a no-op.
  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// RAII span; nests under the innermost open scope.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_ = nullptr;
    std::int32_t index_ = -1;
  };

  /// Per span name: calls, total seconds, self seconds.
  std::map<std::string, LayerTotal> layer_totals() const;

  /// Chrome trace-event JSON ("X" events; parent and job in args).
  void write_chrome_json(std::ostream& os) const;

 private:
  std::uint64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace bench
