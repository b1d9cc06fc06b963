#include "serve_loop.hpp"

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <thread>


namespace bench {

using namespace svsim;

namespace {

/// istream side: hands out queued lines, blocking until one is queued or
/// the source is closed (then end of file).
class LineSource : public std::streambuf {
 public:
  void push(std::string line) {
    line += '\n';
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(line));
    }
    cv_.notify_one();
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
  }

 protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return traits_type::eof();
    current_ = std::move(queue_.front());
    queue_.pop_front();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(current_[0]);
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::string> queue_;
  bool closed_ = false;
  std::string current_;
};

/// ostream side: assembles lines and passes each complete one on with the
/// time its newline was written.
class LineSink : public std::streambuf {
 public:
  explicit LineSink(std::function<void(std::string&&, Clock::time_point)> emit)
      : emit_(std::move(emit)) {}

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof()))
      put(traits_type::to_char_type(ch));
    return traits_type::not_eof(ch);
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      line_ += c;
      return;
    }
    emit_(std::move(line_), Clock::now());
    line_.clear();
  }

  std::function<void(std::string&&, Clock::time_point)> emit_;
  std::string line_;
};

struct Arrival {
  std::string line;
  Clock::time_point at;
};

/// Stream index of a result id: "j<index>" for the generated ids, and
/// "job-<seq>" (1-based submission order) when the line was not JSON.
bool index_of(const std::string& id, std::size_t& index) {
  const char* digits = nullptr;
  std::size_t base = 0;
  if (id.rfind("job-", 0) == 0) {
    digits = id.c_str() + 4;
    base = 1;
  } else if (id.rfind("j", 0) == 0) {
    digits = id.c_str() + 1;
  } else {
    return false;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(digits, &end, 10);
  if (end == digits || *end != '\0' || v < base) return false;
  index = static_cast<std::size_t>(v - base);
  return true;
}

std::uint64_t entry_digest(const char* label, std::size_t length,
                          std::size_t count) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](unsigned char c) { h = (h ^ c) * 1099511628211ull; };
  for (std::size_t i = 0; i < length; ++i)
    mix(static_cast<unsigned char>(label[i]));
  mix(':');
  for (; count != 0; count /= 10)
    mix(static_cast<unsigned char>('0' + count % 10));
  return h;
}

/// The fields of a result line the benchmark checks.
struct ScannedResult {
  std::string id;
  bool ok = false;
  std::string error_code;
  std::size_t shots = 0;  ///< sum of the counts
  std::uint64_t counts_digest = 0;
  double compile_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Position just past `key` in `line`, or npos.
std::size_t after(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  return at == std::string::npos ? at
                                 : at + std::char_traits<char>::length(key);
}

std::string quoted_until(const std::string& line, std::size_t from) {
  const std::size_t end = line.find('"', from);
  return end == std::string::npos ? std::string()
                                  : line.substr(from, end - from);
}

/// Reads a result line without building a document: the benchmark checks
/// thousands of lines a second beside the workers, so it keeps this cheap.
bool scan_result(const std::string& line, ScannedResult& r) {
  std::size_t at = after(line, "\"id\":\"");
  if (at == std::string::npos) return false;
  r.id = quoted_until(line, at);
  at = after(line, "\"ok\":");
  if (at == std::string::npos) return false;
  r.ok = line.compare(at, 4, "true") == 0;
  if (!r.ok) {
    at = after(line, "\"code\":\"");
    if (at != std::string::npos) r.error_code = quoted_until(line, at);
    return true;
  }
  at = after(line, "\"counts\":{");
  if (at == std::string::npos) return false;
  while (at < line.size() && line[at] == '"') {
    const std::size_t label_end = line.find('"', at + 1);
    if (label_end == std::string::npos || line[label_end + 1] != ':')
      return false;
    char* end = nullptr;
    const unsigned long long count =
        std::strtoull(line.c_str() + label_end + 2, &end, 10);
    r.shots += count;
    r.counts_digest += entry_digest(line.c_str() + at + 1, label_end - at - 1,
                                    static_cast<std::size_t>(count));
    at = static_cast<std::size_t>(end - line.c_str());
    if (at < line.size() && line[at] == ',') ++at;
  }
  if (at >= line.size() || line[at] != '}') return false;
  at = after(line, "\"compile_seconds\":");
  if (at != std::string::npos)
    r.compile_seconds = std::strtod(line.c_str() + at, nullptr);
  at = after(line, "\"total_seconds\":");
  if (at != std::string::npos)
    r.total_seconds = std::strtod(line.c_str() + at, nullptr);
  return true;
}

}  // namespace

std::uint64_t counts_digest(const std::map<std::string, std::size_t>& counts) {
  std::uint64_t digest = 0;
  for (const auto& [label, count] : counts)
    digest += entry_digest(label.data(), label.size(), count);
  return digest;
}

const JobSpec& JobStream::at(std::size_t index) {
  while (jobs_.size() <= index) jobs_.push_back(generate_(jobs_.size()));
  return jobs_[index];
}

LoopResult run_closed_loop(
    svc::Service& service, JobStream& stream, unsigned outstanding,
    double seconds, const std::function<bool(std::size_t)>& keep_counts) {
  LoopResult out;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Arrival> arrivals;  // guarded by mutex
  bool summary_seen = false;     // guarded by mutex

  LineSource source;
  LineSink sink([&](std::string&& line, Clock::time_point at) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (line.find("\"type\":\"summary\"") != std::string::npos)
        summary_seen = true;
      else
        arrivals.push_back({std::move(line), at});
    }
    cv.notify_one();
  });
  std::istream in(&source);
  std::ostream sink_stream(&sink);

  std::thread session([&] { svc::serve_session(in, sink_stream, service); });

  // Touched only by this (the feeding) thread.
  std::vector<Clock::time_point> submitted_at;
  std::size_t in_flight = 0;
  Clock::time_point first_submit{}, last_result{};
  auto problem = [&](const std::string& what) {
    ++out.wrong;
    if (out.problems.size() < 8) out.problems.push_back(what);
  };
  auto handle = [&](const Arrival& a) {
    ScannedResult r;
    std::size_t index = 0;
    if (!scan_result(a.line, r) || !index_of(r.id, index) ||
        index >= submitted_at.size()) {
      problem("unreadable result line: " + a.line.substr(0, 120));
      return;
    }
    const JobSpec& spec = stream.at(index);
    CompletedJob done;
    done.latency_s = seconds_between(submitted_at[index], a.at);
    done.ok = r.ok;
    done.shots = r.shots;
    done.job_s = r.total_seconds;
    done.compile_s = r.compile_seconds;
    if (spec.malformed) {
      if (r.ok || r.error_code != "bad_request")
        problem(spec.id + ": malformed line not answered with bad_request");
    } else if (!r.ok) {
      problem(spec.id + ": failed with " + r.error_code);
    } else if (r.shots != spec.shots) {
      problem(spec.id + ": counts sum to " + std::to_string(r.shots) +
              " of " + std::to_string(spec.shots) + " shots");
    } else if (keep_counts(index)) {
      out.kept_digests[index] = r.counts_digest;
    }
    out.completed.push_back(done);
  };

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  bool feeding = true;
  for (;;) {
    std::deque<Arrival> batch;
    bool session_done = false;
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (feeding) {
        cv.wait_until(lock, deadline, [&] {
          return !arrivals.empty() || in_flight < outstanding;
        });
      } else {
        cv.wait(lock, [&] { return !arrivals.empty() || summary_seen; });
      }
      batch.swap(arrivals);
      in_flight -= batch.size();
      session_done = summary_seen && arrivals.empty();
    }
    if (!batch.empty()) last_result = batch.back().at;
    if (feeding && Clock::now() >= deadline) {
      feeding = false;
      source.close();
    }
    while (feeding && in_flight < outstanding) {
      const JobSpec& spec = stream.at(submitted_at.size());
      const auto now = Clock::now();
      if (submitted_at.empty()) first_submit = now;
      submitted_at.push_back(now);
      ++in_flight;
      source.push(spec.line);
    }
    for (const Arrival& a : batch) handle(a);
    if (session_done) break;
  }
  session.join();

  out.submitted = submitted_at.size();
  out.window_s = seconds_between(first_submit, last_result);
  if (out.completed.size() != out.submitted)
    problem(std::to_string(out.submitted - out.completed.size()) +
            " submitted jobs got no result");
  return out;
}

}  // namespace bench
