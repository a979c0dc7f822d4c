// Length-prefixed framing over loopback TCP: round trips, incremental
// decoding, protocol-violation handling and listener rebind; the shared
// "t"-tagged codec helpers; and the one daemon poll loop (net::Loop) under
// hostile peers.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "hpc/net/frame.hpp"
#include "hpc/net/loop.hpp"
#include "hpc/net/wire.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace dpho::hpc::net {
namespace {

/// Polls accept until the pending connection shows up (connect is racy with
/// accept on loopback, but only by microseconds).
int accept_soon(const Listener& listener) {
  for (int i = 0; i < 1000; ++i) {
    const int fd = listener.accept_nonblocking();
    if (fd >= 0) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

TEST(NetFrame, RoundTripsFramesBothWays) {
  Listener listener;
  listener.open();
  ASSERT_GT(listener.port(), 0);

  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  // Client -> server through the non-blocking FrameReader.
  ASSERT_TRUE(write_frame(client, "{\"t\":\"hello\"}"));
  FrameReader reader;
  std::optional<std::string> frame;
  for (int i = 0; i < 1000 && !frame; ++i) {
    reader.drain(server);
    frame = reader.next();
    if (!frame) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, "{\"t\":\"hello\"}");

  // Server -> client through the blocking read_frame (the worker's view).
  ASSERT_TRUE(write_frame(server, "{\"t\":\"init\"}"));
  const std::optional<std::string> reply = read_frame(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "{\"t\":\"init\"}");

  ::close(client);
  ::close(server);
}

TEST(NetFrame, ReaderReassemblesSplitFrames) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  // Hand-build two frames and trickle them in three arbitrary cuts; the
  // reader must reassemble both regardless of packetization.
  const std::string payload_a = "{\"a\":1}";
  const std::string payload_b = "{\"b\":2}";
  std::string bytes;
  for (const std::string& payload : {payload_a, payload_b}) {
    const auto size = static_cast<std::uint32_t>(payload.size());
    bytes.push_back(static_cast<char>((size >> 24) & 0xFF));
    bytes.push_back(static_cast<char>((size >> 16) & 0xFF));
    bytes.push_back(static_cast<char>((size >> 8) & 0xFF));
    bytes.push_back(static_cast<char>(size & 0xFF));
    bytes += payload;
  }
  FrameReader reader;
  const std::size_t cuts[] = {2, 9, bytes.size()};
  std::size_t sent = 0;
  for (const std::size_t cut : cuts) {
    ASSERT_EQ(::send(client, bytes.data() + sent, cut - sent, 0),
              static_cast<ssize_t>(cut - sent));
    sent = cut;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    reader.drain(server);
  }
  EXPECT_EQ(reader.next().value_or(""), payload_a);
  EXPECT_EQ(reader.next().value_or(""), payload_b);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.closed());

  ::close(client);
  ::close(server);
}

TEST(NetFrame, PeerCloseIsReportedOnce) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  ASSERT_TRUE(write_frame(client, "{\"t\":\"bye\"}"));
  ::close(client);
  FrameReader reader;
  bool open = true;
  for (int i = 0; i < 1000 && open; ++i) {
    open = reader.drain(server);
    if (open) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(open);
  EXPECT_TRUE(reader.closed());
  // The frame that arrived before the close is still delivered.
  EXPECT_EQ(reader.next().value_or(""), "{\"t\":\"bye\"}");
  ::close(server);
}

TEST(NetFrame, OversizedLengthPrefixIsAProtocolViolation) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  const char poison[4] = {0x7F, 0x7F, 0x7F, 0x7F};  // ~2 GiB "payload"
  ASSERT_EQ(::send(client, poison, sizeof(poison), 0), 4);
  FrameReader reader;
  bool open = true;
  for (int i = 0; i < 1000 && open; ++i) {
    open = reader.drain(server);
    if (open) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(open);
  // The violation is typed -- distinguishable from an orderly close.
  EXPECT_EQ(reader.error(), FrameError::kOversized);
  EXPECT_EQ(reader.oversized_length(), 0x7F7F7F7Fu);
  ::close(client);
  ::close(server);
}

TEST(NetFrame, TypedErrorsDistinguishCloseFromOversize) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  FrameReader reader;
  EXPECT_EQ(reader.error(), FrameError::kNone);
  ::close(client);
  bool open = true;
  for (int i = 0; i < 1000 && open; ++i) {
    open = reader.drain(server);
    if (open) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reader.error(), FrameError::kClosed);
  EXPECT_EQ(to_string(FrameError::kClosed), "closed");
  EXPECT_EQ(to_string(FrameError::kOversized), "oversized");
  ::close(server);
}

TEST(NetFrame, PerReaderCapRejectsBeforeBufferingThePayload) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  // A frame that is legal under the protocol maximum but over this reader's
  // 64-byte cap.  The reader must reject it from the prefix alone.
  FrameReader reader(/*max_payload=*/64);
  EXPECT_EQ(reader.max_payload(), 64u);
  const std::string big(100, 'x');
  ASSERT_TRUE(write_frame(client, big));
  bool open = true;
  for (int i = 0; i < 1000 && open; ++i) {
    open = reader.drain(server);
    if (open) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reader.error(), FrameError::kOversized);
  EXPECT_EQ(reader.oversized_length(), 100u);
  EXPECT_FALSE(reader.next().has_value());
  ::close(client);
  ::close(server);
}

TEST(NetFrame, PerReaderCapAdmitsFramesUnderTheLimit) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  FrameReader reader(/*max_payload=*/64);
  ASSERT_TRUE(write_frame(client, "{\"ok\":true}"));
  std::optional<std::string> frame;
  for (int i = 0; i < 1000 && !frame; ++i) {
    reader.drain(server);
    frame = reader.next();
    if (!frame) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(frame.value_or(""), "{\"ok\":true}");
  EXPECT_EQ(reader.error(), FrameError::kNone);
  ::close(client);
  ::close(server);
}

TEST(NetFrame, BlockingReadFrameHonoursTheCap) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  ASSERT_TRUE(write_frame(server, std::string(100, 'y')));
  EXPECT_THROW(read_frame(client, /*max_payload=*/64), util::IoError);
  ::close(client);
  ::close(server);
}

TEST(NetFrame, ZeroLengthFramesAreDeliveredNotConfusedWithClose) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  // An empty payload is a legal frame: 4 zero bytes of prefix, no body.
  // Both the non-blocking reader and the blocking read_frame must deliver
  // an engaged empty string -- distinguishable from nullopt (peer close).
  ASSERT_TRUE(write_frame(client, ""));
  ASSERT_TRUE(write_frame(client, "{\"after\":1}"));
  FrameReader reader;
  std::optional<std::string> frame;
  for (int i = 0; i < 1000 && !frame; ++i) {
    reader.drain(server);
    frame = reader.next();
    if (!frame) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
  // Framing stays aligned: the next frame comes through intact.
  EXPECT_EQ(reader.next().value_or("gone"), "{\"after\":1}");
  EXPECT_EQ(reader.error(), FrameError::kNone);

  ASSERT_TRUE(write_frame(server, ""));
  const std::optional<std::string> blocking = read_frame(client);
  ASSERT_TRUE(blocking.has_value());
  EXPECT_TRUE(blocking->empty());

  ::close(client);
  ::close(server);
}

TEST(NetFrame, RebindMovesToAFreshPort) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  listener.rebind();
  EXPECT_TRUE(listener.is_open());
  // Established connections survive the restart; only the accept queue dies.
  ASSERT_TRUE(write_frame(client, "{\"t\":\"hb\"}"));
  FrameReader reader;
  std::optional<std::string> frame;
  for (int i = 0; i < 1000 && !frame; ++i) {
    reader.drain(server);
    frame = reader.next();
    if (!frame) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(frame.value_or(""), "{\"t\":\"hb\"}");
  // And new connections reach the new port.
  const int late = connect_loopback(listener.port());
  EXPECT_GE(accept_soon(listener), 0);
  ::close(late);
  ::close(client);
  ::close(server);
}

TEST(NetWire, SeedsSurviveTheHexEncoding) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
        std::uint64_t{0x0123456789ABCDEF}}) {
    EXPECT_EQ(decode_u64(encode_u64(seed)), seed);
  }
}

TEST(NetWire, TaskFramesRoundTrip) {
  TaskSpec spec;
  spec.id = 17;
  spec.genome = {0.25, -1.5, 3.0};
  spec.eval_seed = 0xDEADBEEFCAFEF00Dull;
  spec.uuid = "0123456789abcdef0123456789abcdef";
  const util::Json frame = encode_task(spec, 0.125);
  EXPECT_EQ(message_type(frame), kMsgTask);
  const TaskSpec back = decode_task(frame);
  EXPECT_EQ(back.id, spec.id);
  EXPECT_EQ(back.genome, spec.genome);
  EXPECT_EQ(back.eval_seed, spec.eval_seed);
  EXPECT_EQ(back.uuid, spec.uuid);
  EXPECT_DOUBLE_EQ(task_straggler_seconds(frame), 0.125);
}

TEST(NetWire, ResultFramesRoundTrip) {
  WorkResult result;
  result.fitness = {0.01, 0.05};
  result.sim_minutes = 42.5;
  result.training_error = false;
  result.cause = FailureCause::kNone;
  result.attempts = 2;
  const util::Json frame = encode_result(9, result);
  EXPECT_EQ(message_type(frame), kMsgResult);
  EXPECT_EQ(result_id(frame), 9u);
  const WorkResult back = decode_result(frame);
  EXPECT_EQ(back.fitness, result.fitness);
  EXPECT_DOUBLE_EQ(back.sim_minutes, result.sim_minutes);
  EXPECT_EQ(back.attempts, result.attempts);
  EXPECT_EQ(back.cause, result.cause);
}

TEST(NetWire, MessageTypeNeedsAStringTag) {
  EXPECT_EQ(message_type(util::Json::parse("{\"t\":\"hb\"}")), kMsgHeartbeat);
  for (const char* bad : {"[]", "{}", "{\"t\":5}", "{\"t\":null}"}) {
    EXPECT_THROW(message_type(util::Json::parse(bad)), util::ParseError) << bad;
  }
  EXPECT_THROW(expect_type(encode_shutdown(), kMsgTask), util::ParseError);
}

TEST(NetWire, WorkerDecodersRefuseNumbersTheyCannotCast) {
  for (const double bad : {-1.0, 2.5, 1e30, 0x1p53}) {
    util::Json hello = encode_hello(3, 4711);
    hello["token"] = bad;
    EXPECT_THROW(hello_token(hello), util::ValueError) << bad;

    TaskSpec spec;
    spec.id = 4;
    spec.eval_seed = 1;
    util::Json task = encode_task(spec, 0.0);
    task["id"] = bad;
    EXPECT_THROW(decode_task(task), util::ValueError) << bad;

    util::Json result = encode_result(9, WorkResult{});
    result["id"] = bad;
    EXPECT_THROW(result_id(result), util::ValueError) << bad;
    result = encode_result(9, WorkResult{});
    result["attempts"] = bad;
    EXPECT_THROW(decode_result(result), util::ValueError) << bad;
  }
  util::Json result = encode_result(9, WorkResult{});
  result["attempts"] = "2";
  EXPECT_THROW(decode_result(result), util::ParseError);
  // An absent attempt count still means one attempt.
  const util::Json full = encode_result(9, WorkResult{});
  util::Json bare;
  for (const auto& [key, value] : full.as_object()) {
    if (key != "attempts") bare[key] = value;
  }
  EXPECT_EQ(decode_result(bare).attempts, 1u);
  EXPECT_EQ(hello_token(encode_hello(3, 4711)), 3u);
}

TEST(NetWire, RequestIdIsRecoveredOnlyWhenWireExact) {
  EXPECT_EQ(request_id(util::Json::parse("{\"t\":\"x\",\"id\":7}")), 7u);
  // Absent or non-numeric: no id to recover, the decoder refuses later.
  EXPECT_EQ(request_id(util::Json::parse("{\"t\":\"x\"}")), 0u);
  EXPECT_EQ(request_id(util::Json::parse("{\"id\":\"7\"}")), 0u);
  EXPECT_EQ(request_id(util::Json::parse("[7]")), 0u);
  for (const char* bad : {"-1", "2.5", "1e30", "9007199254740992"}) {
    EXPECT_THROW(
        request_id(util::Json::parse(std::string("{\"id\":") + bad + "}")),
        util::ValueError)
        << bad;
  }
}

TEST(NetWire, ScanRecoversTheIdOfARefusedFrame) {
  // Frames the parser refuses, with a well-formed top-level id.
  const std::string deep = std::string(300, '[') + std::string(300, ']');
  EXPECT_EQ(scan_request_id("{\"t\":\"eval\",\"id\":22,\"x\":[1e999]}"), 22u);
  EXPECT_EQ(scan_request_id("{\"x\":" + deep + ",\"id\":7}"), 7u);
  EXPECT_EQ(scan_request_id(" {\"s\":\"}\\\"{\", \"id\" : 3 } "), 3u);
  EXPECT_EQ(scan_request_id("{\"a\":{\"id\":5},\"id\":9007199254740991}"),
            9007199254740991u);
  // The last top-level "id" wins, as in the parser.
  EXPECT_EQ(scan_request_id("{\"id\":4,\"id\":6}"), 6u);
  EXPECT_EQ(scan_request_id("{\"id\":4,\"id\":\"6\"}"), 0u);
  // Anything but a plain decimal integer below 2^53 is no id.
  for (const char* bad : {"-1", "2.5", "7.0", "1e3", "007", "9007199254740992",
                          "\"7\"", "[7]", "true"}) {
    EXPECT_EQ(scan_request_id(std::string("{\"id\":") + bad + ",\"x\":1e999}"), 0u)
        << bad;
  }
  // Nested ids, escaped keys and payloads that are not one delimited object
  // yield nothing.
  for (const std::string& bad :
       {std::string("{\"a\":{\"id\":5}}"), std::string("{\"i\\u0064\":5}"),
        std::string("[{\"id\":5}]"), std::string("{\"id\":5"),
        std::string("{\"id\":5} x"), std::string("{\"id\":5,}"),
        std::string("{\"id\" 5}"), std::string(100000, '['), std::string(),
        std::string("{\"x\":\"unterminated")}) {
    EXPECT_EQ(scan_request_id(bad), 0u) << bad.substr(0, 40);
  }
}

TEST(NetWire, ParseRequestRecoversTheIdEitherWay) {
  std::uint64_t id = 99;
  EXPECT_EQ(parse_request("{\"t\":\"x\",\"id\":7}", id).at("t").as_string(), "x");
  EXPECT_EQ(id, 7u);
  id = 99;
  EXPECT_THROW(parse_request("{\"t\":\"x\",\"id\":8,\"v\":1e999}", id),
               util::ParseError);
  EXPECT_EQ(id, 8u);
  id = 99;
  EXPECT_THROW(parse_request("{\"id\":2.5}", id), util::ValueError);
  EXPECT_EQ(id, 0u);
}

TEST(NetWire, ErrorEnvelopeRoundTripsAndNeedsEveryField) {
  const util::Json wire = encode_error({5, "overloaded", "queue full"});
  EXPECT_EQ(wire.dump(),
            "{\"t\":\"error\",\"id\":5,\"code\":\"overloaded\","
            "\"message\":\"queue full\"}");
  const ErrorEnvelope back = decode_error(wire);
  EXPECT_EQ(back.id, 5u);
  EXPECT_EQ(back.code, "overloaded");
  EXPECT_EQ(back.message, "queue full");
  for (const char* key : {"id", "code", "message"}) {
    util::Json partial;
    for (const auto& [k, v] : wire.as_object()) {
      if (k != key) partial[k] = v;
    }
    EXPECT_THROW(decode_error(partial), util::ParseError) << key;
  }
}

// --- net::Loop -------------------------------------------------------------

/// Raw bytes of a length prefix promising `length` payload bytes.
std::string prefix(std::uint32_t length) {
  std::string bytes;
  for (const int shift : {24, 16, 8, 0}) {
    bytes.push_back(static_cast<char>((length >> shift) & 0xFF));
  }
  return bytes;
}

void send_raw(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// A Loop plus a record of what its handlers saw.
struct LoopProbe {
  explicit LoopProbe(std::uint32_t max_frame_bytes = kMaxFramePayload)
      : loop(max_frame_bytes) {
    loop.listener().open();
  }

  /// Polls until `done()` holds; false after five seconds.
  bool poll_until(const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      loop.poll(
          0.005,
          [&](const ConnectionPtr& connection, const std::string& payload) {
            frames.push_back(payload);
            if (on_frame) on_frame(connection, payload);
          },
          [&](const ConnectionPtr& connection) {
            closed.push_back(connection->reader.error());
            if (on_closed) on_closed(connection);
          });
      if (done()) return true;
    }
    return false;
  }

  Loop loop;
  std::vector<std::string> frames;
  std::vector<FrameError> closed;
  Loop::FrameHandler on_frame;
  Loop::CloseHandler on_closed;
};

TEST(NetLoop, TruncatedFrameThenCloseIsReportedAsAClose) {
  LoopProbe probe;
  const int client = connect_loopback(probe.loop.listener().port());
  send_raw(client, prefix(64) + "12345678");
  ::close(client);
  ASSERT_TRUE(probe.poll_until([&] { return !probe.closed.empty(); }));
  EXPECT_TRUE(probe.frames.empty());
  EXPECT_EQ(probe.closed, std::vector<FrameError>{FrameError::kClosed});
  EXPECT_TRUE(probe.loop.connections().empty());
}

TEST(NetLoop, OversizedPrefixIsReportedWhileTheFdCanStillAnswer) {
  LoopProbe probe(/*max_frame_bytes=*/64);
  probe.on_closed = [](const ConnectionPtr& connection) {
    EXPECT_EQ(connection->reader.oversized_length(), 0x7F7F7F7Fu);
    EXPECT_TRUE(Loop::send(connection, "{\"t\":\"error\"}"));
  };
  const int client = connect_loopback(probe.loop.listener().port());
  send_raw(client, prefix(0x7F7F7F7F));  // ~2 GiB: refused from the prefix
  ASSERT_TRUE(probe.poll_until([&] { return !probe.closed.empty(); }));
  EXPECT_EQ(probe.closed, std::vector<FrameError>{FrameError::kOversized});
  // The refusal written from on_closed arrives first, then EOF.
  EXPECT_EQ(read_frame(client).value_or(""), "{\"t\":\"error\"}");
  EXPECT_FALSE(read_frame(client).has_value());
  ::close(client);
}

TEST(NetLoop, ASilentHalfFrameDoesNotHoldUpOtherConnections) {
  LoopProbe probe;
  probe.on_frame = [](const ConnectionPtr& connection, const std::string&) {
    EXPECT_TRUE(Loop::send(connection, "{\"t\":\"ok\"}"));
  };
  const int silent = connect_loopback(probe.loop.listener().port());
  send_raw(silent, prefix(64) + "{\"t\":");
  const int chatty = connect_loopback(probe.loop.listener().port());
  ASSERT_TRUE(write_frame(chatty, "{\"t\":\"ping\"}"));
  ASSERT_TRUE(probe.poll_until([&] { return !probe.frames.empty(); }));
  EXPECT_EQ(read_frame(chatty).value_or(""), "{\"t\":\"ok\"}");
  EXPECT_EQ(probe.frames, std::vector<std::string>{"{\"t\":\"ping\"}"});
  EXPECT_TRUE(probe.closed.empty());
  EXPECT_EQ(probe.loop.connections().size(), 2u);
  ::close(silent);
  ::close(chatty);
}

TEST(NetLoop, ResetInTheMiddleOfAFrameIsReportedAsAReset) {
  LoopProbe probe;
  const int client = connect_loopback(probe.loop.listener().port());
  send_raw(client, prefix(64) + "1234");
  ASSERT_TRUE(
      probe.poll_until([&] { return probe.loop.connections().size() == 1; }));
  // Linger 0: close() sends RST instead of FIN.
  const linger abort_on_close{1, 0};
  ::setsockopt(client, SOL_SOCKET, SO_LINGER, &abort_on_close,
               sizeof(abort_on_close));
  ::close(client);
  ASSERT_TRUE(probe.poll_until([&] { return !probe.closed.empty(); }));
  EXPECT_TRUE(probe.frames.empty());
  EXPECT_EQ(probe.closed, std::vector<FrameError>{FrameError::kReset});
}

TEST(NetLoop, RebindKeepsEstablishedConnections) {
  LoopProbe probe;
  const int early = connect_loopback(probe.loop.listener().port());
  ASSERT_TRUE(
      probe.poll_until([&] { return probe.loop.connections().size() == 1; }));
  probe.loop.listener().rebind();
  ASSERT_TRUE(probe.loop.listener().is_open());
  const int late = connect_loopback(probe.loop.listener().port());
  ASSERT_TRUE(write_frame(early, "{\"t\":\"a\"}"));
  ASSERT_TRUE(write_frame(late, "{\"t\":\"b\"}"));
  ASSERT_TRUE(probe.poll_until([&] { return probe.frames.size() == 2; }));
  EXPECT_EQ(probe.loop.connections().size(), 2u);
  EXPECT_TRUE(probe.closed.empty());
  ::close(early);
  ::close(late);
}

TEST(NetLoop, APeerThatNeverReadsIsDropped) {
  LoopProbe probe;
  const int client = connect_loopback(probe.loop.listener().port());
  ASSERT_TRUE(
      probe.poll_until([&] { return probe.loop.connections().size() == 1; }));
  const ConnectionPtr connection = probe.loop.connections().front();

  // Megabyte replies the client never reads: once the socket buffers are
  // full, the one-second write stall drops the connection.
  const std::string reply(1u << 20, 'x');
  int sent = 0;
  while (sent < 256 && Loop::send(connection, reply)) ++sent;
  EXPECT_LT(sent, 256);
  EXPECT_FALSE(connection->alive.load());
  EXPECT_FALSE(Loop::send(connection, "{}"));

  ASSERT_TRUE(probe.poll_until([&] { return !probe.closed.empty(); }));
  EXPECT_TRUE(probe.loop.connections().empty());
  // The client sees the end of the stream once it reads what was queued.
  const timeval tick{0, 100000};
  ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tick, sizeof(tick));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  char sink[64 * 1024];
  bool eof = false;
  while (!eof && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(client, sink, sizeof(sink), 0);
    eof = n == 0 || (n < 0 && errno == ECONNRESET);
  }
  EXPECT_TRUE(eof);
  ::close(client);
}

}  // namespace
}  // namespace dpho::hpc::net
