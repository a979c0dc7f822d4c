#include "hpc/net/wire.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "hpc/net/frame.hpp"
#include "util/error.hpp"

namespace dpho::hpc::net {

util::Json tagged(const char* type, std::uint64_t id) {
  util::Json msg;
  msg["t"] = type;
  msg["id"] = id;
  return msg;
}

std::string message_type(const util::Json& message) {
  if (!message.is_object() || !message.contains("t") ||
      !message.at("t").is_string()) {
    throw util::ParseError("wire message without a \"t\" tag");
  }
  return message.at("t").as_string();
}

void expect_type(const util::Json& message, const char* tag) {
  const std::string type = message_type(message);
  if (type != tag) {
    throw util::ParseError("wire message: expected t=" + std::string(tag) +
                           ", got t=" + type);
  }
}

std::uint64_t uint_field(const util::Json& message, const std::string& key) {
  if (!message.contains(key) || !message.at(key).is_number()) {
    throw util::ParseError("wire message: missing numeric field " + key);
  }
  const double value = message.at(key).as_number();
  // Below 2^53 every integer is exact in a double and the cast is defined.
  if (!(value >= 0.0 && value < 0x1p53) || value != std::floor(value)) {
    throw util::ValueError("wire message: field " + key +
                           " must be an integer in [0, 2^53)");
  }
  return static_cast<std::uint64_t>(value);
}

const std::string& string_field(const util::Json& message,
                                const std::string& key) {
  if (!message.contains(key) || !message.at(key).is_string()) {
    throw util::ParseError("wire message: missing string field " + key);
  }
  return message.at(key).as_string();
}

std::uint64_t request_id(const util::Json& message) {
  if (!message.is_object() || !message.contains("id") ||
      !message.at("id").is_number()) {
    return 0;
  }
  return uint_field(message, "id");
}

namespace {

/// A cursor over a refused payload.  Every step advances or stops, so one
/// scan reads each byte at most once.
struct IdScanner {
  std::string_view text;
  std::size_t pos = 0;

  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }
  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  void skip_space() {
    while (!done() && is_space(peek())) ++pos;
  }
  bool eat(char c) {
    skip_space();
    if (done() || peek() != c) return false;
    ++pos;
    return true;
  }
  /// Past a string whose opening quote is at pos; false if unterminated.
  /// `escaped` reports whether it held a backslash escape.
  bool skip_string(bool& escaped) {
    escaped = false;
    for (++pos; !done(); ++pos) {
      if (peek() == '\\') {
        escaped = true;
        ++pos;
      } else if (peek() == '"') {
        ++pos;
        return true;
      }
    }
    return false;
  }
  /// Past one value of any shape (containers by bracket count, without
  /// recursion); false if the payload ends first.
  bool skip_value() {
    skip_space();
    if (done()) return false;
    bool escaped = false;
    if (peek() == '"') return skip_string(escaped);
    if (peek() == '{' || peek() == '[') {
      std::size_t depth = 0;
      while (!done()) {
        const char c = peek();
        if (c == '"') {
          if (!skip_string(escaped)) return false;
          continue;
        }
        ++pos;
        if (c == '{' || c == '[') ++depth;
        if ((c == '}' || c == ']') && --depth == 0) return true;
      }
      return false;
    }
    const std::size_t start = pos;
    while (!done() && peek() != ',' && peek() != '}' && peek() != ']' &&
           !is_space(peek())) {
      ++pos;
    }
    return pos > start;
  }
};

/// A plain decimal integer below 2^53 ("0" or no leading zero), else 0.
std::uint64_t plain_id(std::string_view token) {
  if (token.empty() || token.size() > 16 ||
      (token.size() > 1 && token[0] == '0')) {
    return 0;
  }
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return 0;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value < (std::uint64_t{1} << 53) ? value : 0;
}

}  // namespace

std::uint64_t scan_request_id(std::string_view payload) {
  IdScanner scan{payload};
  if (!scan.eat('{') || scan.eat('}')) return 0;
  std::uint64_t id = 0;
  do {
    scan.skip_space();
    if (scan.done() || scan.peek() != '"') return 0;
    const std::size_t key_start = scan.pos + 1;
    bool escaped = false;
    if (!scan.skip_string(escaped) || escaped) return 0;
    const std::string_view key =
        payload.substr(key_start, scan.pos - 1 - key_start);
    if (!scan.eat(':')) return 0;
    scan.skip_space();
    const std::size_t value_start = scan.pos;
    if (!scan.skip_value()) return 0;
    if (key == "id") {
      id = plain_id(payload.substr(value_start, scan.pos - value_start));
    }
  } while (scan.eat(','));
  if (!scan.eat('}')) return 0;
  scan.skip_space();
  return scan.done() ? id : 0;
}

util::Json parse_request(const std::string& payload, std::uint64_t& id) {
  id = 0;
  util::Json message;
  try {
    message = util::Json::parse(payload);
  } catch (const util::ParseError&) {
    id = scan_request_id(payload);
    throw;
  }
  id = request_id(message);
  return message;
}

util::Json encode_error(const ErrorEnvelope& error) {
  util::Json msg = tagged(kMsgError, error.id);
  msg["code"] = error.code;
  msg["message"] = error.message;
  return msg;
}

ErrorEnvelope decode_error(const util::Json& message) {
  expect_type(message, kMsgError);
  return ErrorEnvelope{uint_field(message, "id"), string_field(message, "code"),
                       string_field(message, "message")};
}

util::Json exchange(int fd, const util::Json& request) {
  if (!write_frame(fd, request.dump())) {
    throw util::IoError("the daemon closed the connection");
  }
  const std::optional<std::string> reply = read_frame(fd);
  if (!reply) throw util::IoError("connection lost awaiting the reply");
  return util::Json::parse(*reply);
}

std::string encode_u64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t decode_u64(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) {
    throw util::ParseError("bad u64 hex field: \"" + hex + "\"");
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(hex.c_str(), &end, 16);
  if (end != hex.c_str() + hex.size()) {
    throw util::ParseError("bad u64 hex field: \"" + hex + "\"");
  }
  return static_cast<std::uint64_t>(value);
}

util::Json encode_hello(std::size_t token, std::int64_t pid) {
  util::Json msg;
  msg["t"] = kMsgHello;
  msg["token"] = token;
  msg["pid"] = pid;
  return msg;
}

util::Json encode_init(const std::string& eval_config_json,
                       double heartbeat_interval_seconds) {
  util::Json msg;
  msg["t"] = kMsgInit;
  msg["eval_config"] = eval_config_json.empty()
                           ? util::Json(util::JsonObject{})
                           : util::Json::parse(eval_config_json);
  msg["heartbeat_interval_seconds"] = heartbeat_interval_seconds;
  return msg;
}

util::Json encode_heartbeat(std::uint64_t seq) {
  util::Json msg;
  msg["t"] = kMsgHeartbeat;
  msg["seq"] = encode_u64(seq);
  return msg;
}

util::Json encode_task(const TaskSpec& spec, double straggler_seconds) {
  util::Json msg = tagged(kMsgTask, spec.id);
  util::JsonArray genome;
  for (double gene : spec.genome) genome.emplace_back(gene);
  msg["genome"] = util::Json(std::move(genome));
  msg["eval_seed"] = encode_u64(spec.eval_seed);
  msg["uuid"] = spec.uuid;
  if (straggler_seconds > 0.0) msg["straggler_seconds"] = straggler_seconds;
  return msg;
}

util::Json encode_result(std::size_t id, const WorkResult& result) {
  util::Json msg = tagged(kMsgResult, id);
  util::JsonArray fitness;
  for (double f : result.fitness) fitness.emplace_back(f);
  msg["fitness"] = util::Json(std::move(fitness));
  msg["sim_minutes"] = result.sim_minutes;
  msg["training_error"] = result.training_error;
  msg["cause"] = to_string(result.cause);
  msg["attempts"] = result.attempts;
  return msg;
}

util::Json encode_shutdown() {
  util::Json msg;
  msg["t"] = kMsgShutdown;
  return msg;
}

std::size_t hello_token(const util::Json& message) {
  return uint_field(message, "token");
}

TaskSpec decode_task(const util::Json& message) {
  TaskSpec spec;
  spec.id = uint_field(message, "id");
  for (const util::Json& gene : message.at("genome").as_array()) {
    spec.genome.push_back(gene.as_number());
  }
  spec.eval_seed = decode_u64(message.at("eval_seed").as_string());
  spec.uuid = message.at("uuid").as_string();
  return spec;
}

double task_straggler_seconds(const util::Json& message) {
  return message.number_or("straggler_seconds", 0.0);
}

std::size_t result_id(const util::Json& message) {
  return uint_field(message, "id");
}

WorkResult decode_result(const util::Json& message) {
  WorkResult result;
  for (const util::Json& f : message.at("fitness").as_array()) {
    result.fitness.push_back(f.as_number());
  }
  result.sim_minutes = message.at("sim_minutes").as_number();
  result.training_error = message.at("training_error").as_bool();
  result.cause = failure_cause_from_string(message.at("cause").as_string());
  result.attempts =
      message.contains("attempts") ? uint_field(message, "attempts") : 1;
  return result;
}

}  // namespace dpho::hpc::net
