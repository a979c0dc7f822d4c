#include "hpc/net/frame.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "util/error.hpp"

namespace dpho::hpc::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw util::IoError(what + ": " + std::strerror(errno));
}

// Every scheduler-side socket must be close-on-exec: forked workers would
// otherwise inherit each other's connections, and a dead worker's fd would
// never reach EOF (a live sibling still holds a duplicate).
void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) < 0) {
    throw_errno("fcntl FD_CLOEXEC");
  }
}

}  // namespace

Listener::~Listener() { close(); }

void Listener::open() {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("listener socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-assigned ephemeral port
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("listener bind");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listener listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw_errno("listener getsockname");
  }
  set_nonblocking(fd);
  set_cloexec(fd);
  fd_ = fd;
  port_ = ntohs(addr.sin_port);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    port_ = 0;
  }
}

void Listener::rebind() { open(); }

int Listener::accept_nonblocking() const {
  if (fd_ < 0) return -1;
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return -1;
    throw_errno("listener accept");
  }
  set_nonblocking(client);
  set_cloexec(client);
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return client;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("connect socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    ::close(fd);
    throw_errno("connect to 127.0.0.1:" + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl O_NONBLOCK");
  }
}

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw util::ValueError("frame payload exceeds " +
                           std::to_string(kMaxFramePayload) + " bytes");
  }
  std::string wire;
  wire.reserve(4 + payload.size());
  const auto length = static_cast<std::uint32_t>(payload.size());
  wire.push_back(static_cast<char>((length >> 24) & 0xFF));
  wire.push_back(static_cast<char>((length >> 16) & 0xFF));
  wire.push_back(static_cast<char>((length >> 8) & 0xFF));
  wire.push_back(static_cast<char>(length & 0xFF));
  wire += payload;

  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Local sockets drain fast; wait for writability rather than spin.  A
      // peer that accepts no byte for a whole second is not reading its
      // replies: give up instead of stalling the caller's loop for ever.
      fd_set writable;
      FD_ZERO(&writable);
      FD_SET(fd, &writable);
      timeval tv{1, 0};
      const int ready = ::select(fd + 1, nullptr, &writable, nullptr, &tv);
      if (ready < 0 && errno != EINTR) throw_errno("frame select");
      if (ready == 0) return false;
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) return false;
    throw_errno("frame send");
  }
  return true;
}

namespace {

/// Reads exactly `count` bytes from a blocking fd; false on EOF/reset.
bool read_exact(int fd, char* out, std::size_t count) {
  std::size_t got = 0;
  while (got < count) {
    const ssize_t n = ::recv(fd, out + got, count - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return false;
    throw_errno("frame recv");
  }
  return true;
}

}  // namespace

namespace {

std::uint32_t decode_length(const char* header) {
  const auto* p = reinterpret_cast<const unsigned char*>(header);
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

}  // namespace

std::optional<std::string> read_frame(int fd, std::uint32_t max_payload) {
  char header[4];
  if (!read_exact(fd, header, 4)) return std::nullopt;
  const std::uint32_t length = decode_length(header);
  // Validated before the payload string is sized, so a corrupt prefix cannot
  // trigger a multi-gigabyte allocation.
  if (length > max_payload) {
    throw util::IoError("frame length " + std::to_string(length) +
                        " exceeds the " + std::to_string(max_payload) +
                        "-byte cap");
  }
  std::string payload(length, '\0');
  if (length > 0 && !read_exact(fd, payload.data(), length)) return std::nullopt;
  return payload;
}

std::string to_string(FrameError error) {
  switch (error) {
    case FrameError::kNone:
      return "none";
    case FrameError::kClosed:
      return "closed";
    case FrameError::kReset:
      return "reset";
    case FrameError::kOversized:
      return "oversized";
  }
  return "unknown";
}

bool FrameReader::drain(int fd) {
  if (error_ != FrameError::kNone) return false;
  char chunk[4096];
  for (;;) {
    // Slicing between chunks validates each pending length prefix as soon as
    // its 4 bytes arrive, so an oversized declaration stops the read loop
    // before the peer can make us buffer (let alone allocate) its payload.
    slice_frames();
    if (error_ == FrameError::kOversized) return false;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.insert(buffer_.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) {
      error_ = FrameError::kClosed;  // orderly shutdown by the peer
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    error_ = FrameError::kReset;  // treat the peer as gone
    break;
  }
  slice_frames();
  return error_ == FrameError::kNone;
}

void FrameReader::slice_frames() {
  // Slice complete frames off the front of the buffer.
  std::size_t offset = 0;
  while (buffer_.size() - offset >= 4) {
    const std::uint32_t length = decode_length(buffer_.data() + offset);
    if (length > max_payload_) {
      if (error_ == FrameError::kNone) {
        error_ = FrameError::kOversized;
        oversized_length_ = length;
      }
      break;
    }
    if (buffer_.size() - offset - 4 < length) break;
    frames_.emplace_back(buffer_.data() + offset + 4, length);
    offset += 4 + length;
  }
  if (offset > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset));
  }
}

std::optional<std::string> FrameReader::next() {
  if (frames_.empty()) return std::nullopt;
  std::string frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

}  // namespace dpho::hpc::net
