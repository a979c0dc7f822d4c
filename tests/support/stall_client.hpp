// Client-side probes for the daemon stall tests: a flooder that pipelines
// requests and never reads its replies, a bounded request/reply round trip,
// and an EOF check.  Every probe has a deadline, so a daemon that wedges
// fails the test instead of hanging it.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "hpc/net/frame.hpp"
#include "hpc/net/wire.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace dpho::testsupport {

inline void set_timeout(int fd, int option, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

/// Connects to `port` and writes `request` back to back, never reading a
/// reply, until `max_bytes` went out, the daemon accepted nothing for a
/// quarter second, or it hung up.  Returns the connected fd.
inline int flood(std::uint16_t port, const util::Json& request,
                 std::size_t max_bytes) {
  // A small window and segment size, set before connecting, keep the
  // daemon's send buffer for this peer small, so a few dozen replies fill it.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int window = 4096;
  const int segment = 536;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &window, sizeof(window));
  ::setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &segment, sizeof(segment));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    throw util::IoError("flood: connect failed");
  }
  set_timeout(fd, SO_SNDTIMEO, 0.25);
  const std::string payload = request.dump();
  std::string burst;
  while (burst.size() < 64 * 1024) {
    const auto length = static_cast<std::uint32_t>(payload.size());
    for (const int shift : {24, 16, 8, 0}) {
      burst.push_back(static_cast<char>((length >> shift) & 0xFF));
    }
    burst += payload;
  }
  for (std::size_t sent = 0; sent < max_bytes;) {
    // The burst holds whole frames, so resuming at sent % size stays aligned.
    const std::size_t at = sent % burst.size();
    const ssize_t n =
        ::send(fd, burst.data() + at, burst.size() - at, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // stalled (EAGAIN after the send timeout) or hung up
  }
  return fd;
}

/// One request/reply round trip on a fresh connection, or nullopt when no
/// reply arrived within `seconds`.
inline std::optional<util::Json> exchange_within(std::uint16_t port,
                                                 const util::Json& request,
                                                 double seconds) {
  const int fd = hpc::net::connect_loopback(port);
  set_timeout(fd, SO_RCVTIMEO, seconds);
  std::optional<util::Json> reply;
  try {
    reply = hpc::net::exchange(fd, request);
  } catch (const util::IoError&) {
    // Timed out (EAGAIN from the receive timeout) or hung up.
  }
  ::close(fd);
  return reply;
}

/// True when `fd` reaches EOF (or a reset) within `seconds`; discards the
/// replies still queued ahead of it.
inline bool reaches_eof(int fd, double seconds) {
  set_timeout(fd, SO_RCVTIMEO, 0.1);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  char sink[64 * 1024];
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n == 0 || (n < 0 && errno == ECONNRESET)) return true;
  }
  return false;
}

}  // namespace dpho::testsupport
