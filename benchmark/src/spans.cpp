#include "spans.hpp"

#include <cstdio>
#include <ostream>

namespace bench {

std::uint64_t Spans::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

Spans::Scope::Scope(Spans& spans, const char* name, std::uint64_t job) {
  if (!spans.enabled_) return;
  spans_ = &spans;
  index_ = static_cast<std::int32_t>(spans.spans_.size());
  Span span;
  span.name = name;
  span.parent = spans.open_.empty() ? -1 : spans.open_.back();
  span.job = job;
  span.start_ns = spans.now_ns();
  spans.spans_.push_back(span);
  spans.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[static_cast<std::size_t>(index_)].end_ns = spans_->now_ns();
  spans_->open_.pop_back();
}

std::map<std::string, Spans::LayerTotal> Spans::layer_totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  std::map<std::string, LayerTotal> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = static_cast<double>(spans_[i].end_ns -
                                         spans_[i].start_ns) * 1e-9;
    LayerTotal& t = totals[spans_[i].name];
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return totals;
}

void Spans::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) os << ",";
    // Chrome trace timestamps are microseconds; keep nanosecond digits.
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    os << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
       << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
       << ",\"job\":" << s.job << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace bench
