#include "svc/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace svsim::svc::json {

const Value* Value::find(const std::string& key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(const std::string& key, const std::string& where) const {
  const Value* v = find(key);
  require(v != nullptr, "json: " + where + ": missing key '" + key + "'");
  return *v;
}

bool Value::as_bool(const std::string& where) const {
  require(kind == Kind::Bool, "json: " + where + ": expected a boolean");
  return boolean;
}

double Value::as_number(const std::string& where) const {
  require(kind == Kind::Number, "json: " + where + ": expected a number");
  return number;
}

std::uint64_t Value::as_count(const std::string& where,
                              std::uint64_t max) const {
  const double v = as_number(where);
  constexpr double kTwoPow64 = 18446744073709551616.0;  // first past uint64
  require(std::isfinite(v) && v >= 0.0 && v < kTwoPow64 &&
              std::floor(v) == v && static_cast<std::uint64_t>(v) <= max,
          "json: " + where + ": expected an integer in [0, " +
              std::to_string(max) + "]");
  return static_cast<std::uint64_t>(v);
}

const std::string& Value::as_string(const std::string& where) const {
  require(kind == Kind::String, "json: " + where + ": expected a string");
  return string;
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_bool(key);
}

double Value::get_number(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_number(key);
}

std::uint64_t Value::get_count(const std::string& key,
                               std::uint64_t fallback,
                               std::uint64_t max) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_count(key, max);
}

std::string Value::get_string(const std::string& key,
                              const std::string& fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_string(key);
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    require(pos_ == text_.size(),
            "json: trailing characters at offset " + std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t len = 0;
    while (lit[len] != '\0') ++len;
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.kind = Value::Kind::String;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default: return parse_number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.kind = Value::Kind::Bool;
    v.boolean = b;
    return v;
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
            pos_ += 4;
          } else {
            // Pass non-ASCII escapes through as literal text; the protocol's
            // structural fields are ASCII and QASM payloads use raw UTF-8.
            out += "\\u";
            out.append(text_, pos_, 4);
            pos_ += 4;
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      bool any = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        any = true;
      }
      return any;
    };
    if (!digits()) fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("bad number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) fail("bad number exponent");
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace svsim::svc::json
