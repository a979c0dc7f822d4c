// The "t"-tagged JSON message layer shared by every daemon in the repo.
//
// Every frame payload (net/frame.hpp) is one compact JSON object tagged by
// "t".  dp_serve, dpho_sched and the process-cluster workers each speak their
// own vocabulary, but they decode it with the helpers below: the tag, the
// integer and string fields, the request id a refusal still carries, and the
// one error envelope
//
//   {"t":"error","id":7,"code":"<protocol's ErrorCode>","message":"..."}
//
// The scheduler <-> worker vocabulary of hpc::ProcessCluster also lives here:
//
//   worker -> scheduler
//     {"t":"hello","token":3,"pid":4711}     first frame after connect
//     {"t":"hb","seq":17}                    heartbeat (liveness proof)
//     {"t":"result","id":5,...}              one finished evaluation
//
//   scheduler -> worker
//     {"t":"init","eval_config":{...},"heartbeat_interval_ms":50}
//     {"t":"task","id":5,"genome":[...],"eval_seed":"1a2b...","uuid":"...",
//      "straggler_seconds":0}                one evaluation to run
//     {"t":"shutdown"}                       orderly exit
//
// eval_seed travels as a hex string: JSON numbers are doubles and cannot
// hold a 64-bit seed losslessly.  straggler_seconds is the real injection
// backend of FaultKind::kStraggler -- the worker sleeps that long before
// evaluating, exactly where the simulator multiplies the runtime.
//
// Decoders throw util::ParseError (missing or ill-typed fields) or
// util::ValueError (out-of-contract values) and never cast an unchecked
// number: ids and counts go through uint_field.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hpc/cluster_session.hpp"
#include "util/json.hpp"

namespace dpho::hpc::net {

/// Message type tags ("t" values).
inline constexpr const char* kMsgError = "error";
inline constexpr const char* kMsgHello = "hello";
inline constexpr const char* kMsgInit = "init";
inline constexpr const char* kMsgHeartbeat = "hb";
inline constexpr const char* kMsgTask = "task";
inline constexpr const char* kMsgResult = "result";
inline constexpr const char* kMsgShutdown = "shutdown";

/// {"t":type,"id":id} -- the head of every request and reply that carries a
/// correlation id.
util::Json tagged(const char* type, std::uint64_t id);

/// The "t" tag of a decoded message; throws util::ParseError unless the
/// message is an object whose "t" is a string.
std::string message_type(const util::Json& message);

/// Throws util::ParseError unless the message's "t" tag is `tag`.
void expect_type(const util::Json& message, const char* tag);

/// A non-negative integer field (ids, counts); throws util::ParseError when
/// the field is missing or not a number, util::ValueError when it is
/// negative, fractional or 2^53 or more.
std::uint64_t uint_field(const util::Json& message, const std::string& key);

/// A string field; throws util::ParseError when missing or not a string.
const std::string& string_field(const util::Json& message,
                                const std::string& key);

/// The correlation id of a request, recovered before the request is decoded
/// so that even a refusal can carry it: 0 when "id" is absent or not a
/// number; util::ValueError when it is a number outside uint_field's range.
std::uint64_t request_id(const util::Json& message);

/// The correlation id of a frame the JSON parser refused (a number past the
/// double range, nesting past the parser's limit, ...), read from the raw
/// bytes by one bounded pass that never recurses: the value of the
/// top-level "id" key when it is written as a plain decimal integer below
/// 2^53.  The scan only skips over nested values, so what it returns is the
/// id exactly as the wire spelled it.  0 when the payload is not one
/// delimited top-level object, when a top-level key is written with
/// escapes, or when the last "id" (the one the parser would keep) is
/// anything else.
std::uint64_t scan_request_id(std::string_view payload);

/// Parses a request frame and recovers its correlation id into `id`:
/// request_id() of the parsed message or, when the parser refuses the frame,
/// scan_request_id() of its bytes before the util::ParseError propagates.
/// So every refusal a daemon sends can carry the request's own id.
util::Json parse_request(const std::string& payload, std::uint64_t& id);

/// The error reply of every daemon.  Each protocol maps `code` onto its own
/// ErrorCode enum.
struct ErrorEnvelope {
  std::uint64_t id = 0;  // 0 when the offending request yielded no id
  std::string code;
  std::string message;
};

util::Json encode_error(const ErrorEnvelope& error);
ErrorEnvelope decode_error(const util::Json& message);

/// One blocking request/reply round trip on a client's blocking fd; throws
/// util::IoError when the daemon closed the connection.
util::Json exchange(int fd, const util::Json& request);

/// Lossless 64-bit <-> hex-string conversion for seeds (JSON numbers are
/// doubles).
std::string encode_u64(std::uint64_t value);
std::uint64_t decode_u64(const std::string& hex);

util::Json encode_hello(std::size_t token, std::int64_t pid);
util::Json encode_init(const std::string& eval_config_json,
                       double heartbeat_interval_seconds);
util::Json encode_heartbeat(std::uint64_t seq);
util::Json encode_task(const TaskSpec& spec, double straggler_seconds);
util::Json encode_result(std::size_t id, const WorkResult& result);
util::Json encode_shutdown();

/// Field extraction; each throws like the decoders above.
std::size_t hello_token(const util::Json& message);
TaskSpec decode_task(const util::Json& message);
double task_straggler_seconds(const util::Json& message);
std::size_t result_id(const util::Json& message);
WorkResult decode_result(const util::Json& message);

}  // namespace dpho::hpc::net
