#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "util/error.hpp"

namespace dpho::util {

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return v;
  }
  items_.emplace_back(key, Json{});
  return items_.back().second;
}

const Json* JsonObject::find(const std::string& key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* JsonObject::find(const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonObject::operator==(const JsonObject& other) const {
  return items_ == other.items_;
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw ValueError("json value is not a bool");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  throw ValueError("json value is not a number");
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  const double rounded = std::nearbyint(d);
  if (std::abs(d - rounded) > 1e-9) throw ValueError("json number is not integral");
  // [-2^63, 2^63): the doubles whose conversion to int64 is defined.
  if (!(rounded >= -0x1p63 && rounded < 0x1p63)) {
    throw ValueError("json number is out of the integer range");
  }
  return static_cast<std::int64_t>(rounded);
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  throw ValueError("json value is not a string");
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ValueError("json value is not an array");
}

JsonArray& Json::as_array() {
  if (JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ValueError("json value is not an array");
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ValueError("json value is not an object");
}

JsonObject& Json::as_object() {
  if (JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ValueError("json value is not an object");
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  const Json* found = as_object().find(key);
  if (found == nullptr) throw ValueError("json object missing key: " + key);
  return *found;
}

double Json::number_or(const std::string& key, double fallback) const {
  if (!is_object()) return fallback;
  const Json* found = as_object().find(key);
  return (found != nullptr && found->is_number()) ? found->as_number() : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  if (!is_object()) return fallback;
  const Json* found = as_object().find(key);
  return (found != nullptr && found->is_string()) ? found->as_string() : fallback;
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().contains(key);
}

namespace {

void escape_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

// Shortest decimal that parses back to `d`, laid out as printf's "%.Pg" for
// the smallest such precision P (integral values under 1e15 as "%.0f").
// Ryu's shortest digit string gives the lower bound on P, since no shorter
// string round-trips; "%.Pg" is the correctly rounded P-digit string, which
// may miss the rounding interval when the shortest string chose another
// P-digit neighbour, so P steps up until it parses back.  17 digits always
// do.
void format_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    // JSON has no NaN/Inf; emit null, mirroring Python's json with allow_nan
    // disabled semantics we actually want for robust round-trips.
    out += "null";
    return;
  }
  char buf[32];
  char* const end = buf + sizeof buf;
  if (d == std::nearbyint(d) && std::abs(d) < 1e15) {
    out.append(buf, std::to_chars(buf, end, d, std::chars_format::fixed, 0).ptr);
    return;
  }
  const char* const shortest =
      std::to_chars(buf, end, d, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* c = buf; c != shortest && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  for (;; ++precision) {
    char* const text =
        std::to_chars(buf, end, d, std::chars_format::general, precision).ptr;
    double back = 0.0;
    std::from_chars(buf, text, back);
    if (back == d || precision >= 17) {
      out.append(buf, text);
      return;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  // Containers nest by recursion, so a frame of 16 MB of '[' would overflow
  // the stack long before it ran out of bytes; a container inside this many
  // others is refused instead.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  // `depth` counts the containers enclosing the value.
  Json parse_value(int depth) {
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  void check_depth(int depth) const {
    if (depth >= kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
  }

  Json parse_object(int depth) {
    expect('{');
    check_depth(depth);
    JsonObject object;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      expect(':');
      object[key] = parse_value(depth + 1);
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        break;
      }
      fail("expected ',' or '}' in object");
    }
    return Json(std::move(object));
  }

  Json parse_array(int depth) {
    expect('[');
    check_depth(depth);
    JsonArray array;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value(depth + 1));
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        break;
      }
      fail("expected ',' or ']' in array");
    }
    return Json(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // UTF-8 encode (basic multilingual plane only; surrogates passed raw).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?, converted
  // in place; a number no double holds (overflow to inf, underflow to 0) is
  // refused rather than rounded.
  Json parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ - first;
    };
    const auto at = [this](char c) { return pos_ < text_.size() && text_[pos_] == c; };
    if (at('-')) ++pos_;
    const std::size_t integer_start = pos_;
    const std::size_t integer_digits = digits();
    if (integer_digits == 0) fail(pos_ == start ? "expected a value" : "invalid number");
    if (integer_digits > 1 && text_[integer_start] == '0') {
      fail("invalid number: leading zero");
    }
    if (at('.')) {
      ++pos_;
      if (digits() == 0) fail("invalid number: no digits after '.'");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (digits() == 0) fail("invalid number: no exponent digits");
    }
    double value = 0.0;
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range) fail("number out of double range");
    if (ec != std::errc{} || ptr != last) fail("invalid number");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
    }
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    format_number(as_number(), out);
  } else if (is_string()) {
    escape_string(as_string(), out);
  } else if (is_array()) {
    const JsonArray& array = as_array();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    bool first = true;
    for (const Json& item : array) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      item.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
  } else {
    const JsonObject& object = as_object();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : object) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      escape_string(key, out);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      value.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace dpho::util
