// Minimal JSON reader for the service job protocol.
//
// The repo has several JSON *writers* (plan dumps, profile reports, bench
// records) but the serve loop is the first consumer of JSON *input*: one
// job object per line on stdin. This is a small recursive-descent parser
// over an ordered DOM — no external dependency, UTF-8 passed through
// verbatim (only \uXXXX escapes below 0x80 are decoded; others are kept as
// their escape text, which is fine for the protocol's ASCII field names).
// docs/SERVICE.md specifies the job/result schema this feeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace svsim::svc::json {

/// One parsed JSON value. Objects keep insertion order (the protocol never
/// relies on it, but error messages and tests read better).
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const noexcept { return kind == Kind::Null; }
  bool is_bool() const noexcept { return kind == Kind::Bool; }
  bool is_number() const noexcept { return kind == Kind::Number; }
  bool is_string() const noexcept { return kind == Kind::String; }
  bool is_array() const noexcept { return kind == Kind::Array; }
  bool is_object() const noexcept { return kind == Kind::Object; }

  /// Member lookup (objects only); nullptr when absent or not an object.
  const Value* find(const std::string& key) const noexcept;

  // Checked accessors: throw svsim::Error naming `where` on kind mismatch
  // or absence, so job-parse failures carry a usable diagnostic.
  const Value& at(const std::string& key, const std::string& where) const;
  bool as_bool(const std::string& where) const;
  double as_number(const std::string& where) const;
  /// The number as an integer in [0, max]. Throws Error, before any cast,
  /// when it is non-finite, fractional, negative or above `max` — job
  /// fields land in unsigned types where a wrapped value is undefined.
  std::uint64_t as_count(const std::string& where, std::uint64_t max) const;
  const std::string& as_string(const std::string& where) const;

  // Optional-with-default member reads for the job options block.
  bool get_bool(const std::string& key, bool fallback) const;
  double get_number(const std::string& key, double fallback) const;
  std::uint64_t get_count(const std::string& key, std::uint64_t fallback,
                          std::uint64_t max) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
};

/// Parses one complete JSON document; throws svsim::Error with a byte
/// offset on malformed input or trailing garbage.
Value parse(const std::string& text);

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included) — the writer-side counterpart the result emitter uses.
std::string escape(const std::string& s);

/// Appends escape(s) to `out`.
void append_escaped(std::string& out, std::string_view s);

}  // namespace svsim::svc::json
