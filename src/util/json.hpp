// Minimal JSON value type with parser and serializer.
//
// Used for DeePMD-style input.json configuration files (paper section 2.2.4)
// and for experiment result records.  Supports the JSON data model with
// doubles for all numbers; preserves object insertion order so emitted
// configuration files diff cleanly.
//
// Numbers print in shortest round-trip form with fixed text (integral
// values under 1e15 as "%.0f", others as "%.Pg" for the smallest P that
// reads back exactly), via std::to_chars; NaN and infinities print as null.
// The parser is strict: numbers must follow RFC 8259's grammar (no "+1",
// "01", "1." or ".5") and lie in the double range (no "1e400", "1e-400"),
// and containers nest at most 256 levels deep; anything else is a
// ParseError, so a hostile frame cannot overflow a daemon's stack.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace dpho::util {

class Json;

using JsonArray = std::vector<Json>;

/// Order-preserving string->Json map (small, linear lookup is fine for
/// configuration-sized objects).
class JsonObject {
 public:
  Json& operator[](const std::string& key);
  const Json* find(const std::string& key) const;
  Json* find(const std::string& key);
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto begin() { return items_.begin(); }
  auto end() { return items_.end(); }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  bool operator==(const JsonObject&) const;

 private:
  std::vector<std::pair<std::string, Json>> items_;
};

/// A JSON value: null, bool, number (double), string, array or object.
class Json {
 public:
  using Value =
      std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw ValueError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object element access; creates members (converting null to object).
  Json& operator[](const std::string& key);
  /// Const object lookup; throws ValueError when missing.
  const Json& at(const std::string& key) const;
  /// Object lookup with default.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;
  bool contains(const std::string& key) const;

  /// Serialize; indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws ParseError on any malformed input.
  static Json parse(const std::string& text);

  bool operator==(const Json&) const = default;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Value value_;
};

}  // namespace dpho::util
