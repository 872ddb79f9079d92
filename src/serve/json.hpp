// Minimal JSON writer + reader for the art9-serve HTTP front end.
//
// The reader (JsonValue / parse_json) is the strict subset the serve
// request bodies need: objects, arrays, strings (standard escapes,
// ASCII \uXXXX), numbers, booleans, null.  Malformed input throws
// JsonError naming the byte offset — the server maps that onto a
// structured 400.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace art9::json {

/// Quotes `value` as a JSON string: `"` and `\` are escaped, and every
/// control character below 0x20 (which parse_json rejects raw) becomes
/// \n, \r, \t or \u00XX.
[[nodiscard]] inline std::string quote(std::string_view value) {
  std::string quoted = "\"";
  for (char c : value) {
    switch (c) {
      case '"': quoted += "\\\""; break;
      case '\\': quoted += "\\\\"; break;
      case '\n': quoted += "\\n"; break;
      case '\r': quoted += "\\r"; break;
      case '\t': quoted += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          quoted += buf;
        } else {
          quoted += c;
        }
    }
  }
  quoted += '"';
  return quoted;
}

/// Minimal flat JSON object writer: string, finite-double, integer and
/// pre-serialized nested fields, insertion order preserved.
class JsonObject {
 public:
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    fields_.emplace_back(key, buf);
  }

  void add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, quote(value));
  }

  /// Exact unsigned field (doubles lose integers past 2^53 — step budgets
  /// and byte counters must round-trip).
  void add(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }

  void add(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }

  /// String-literal fields must stay strings: without this overload a
  /// `const char*` would prefer the standard conversion to `bool` over
  /// the user-defined one to `std::string` and silently emit true/false.
  void add(const std::string& key, const char* value) { add(key, std::string(value)); }

  void add(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }

  /// Pre-serialized JSON (a nested object/array built by the caller).
  void add_raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
  }

  /// Compact single-line rendering — the serve response body format.
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += '"';
      out += fields_[i].first;
      out += "\": ";
      out += fields_[i].second;
    }
    out += '}';
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Renders `values` as a compact JSON array of integers.
template <typename Range>
[[nodiscard]] std::string int_array(const Range& values) {
  std::string out = "[";
  bool first = true;
  for (const auto& v : values) {
    if (!first) out += ", ";
    first = false;
    out += std::to_string(static_cast<int64_t>(v));
  }
  out += ']';
  return out;
}

// --- reader ------------------------------------------------------------------

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& message) : std::runtime_error("json: " + message) {}
};

/// One parsed JSON value.  Object member order is preserved (the parser
/// keeps a flat vector, not a map — duplicate keys resolve to the first).
class JsonValue {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Typed accessors; throw JsonError on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// Non-negative integral number in uint64 range (else JsonError) —
  /// what step budgets and millisecond fields must be.
  [[nodiscard]] uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Convenience lookups with defaults for optional request fields.
  /// Throw JsonError when the member exists but has the wrong type.
  [[nodiscard]] uint64_t get_uint64(std::string_view key, uint64_t fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key, std::string fallback) const;

  // Construction (used by the parser; handy in tests).
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue string(std::string v);
  static JsonValue array(Array v);
  static JsonValue object(Object v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses exactly one JSON document (trailing whitespace allowed,
/// trailing garbage rejected).  Throws JsonError on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace art9::json
