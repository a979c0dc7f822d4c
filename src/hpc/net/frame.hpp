// Length-prefixed message framing over local TCP sockets.
//
// The transport of every daemon in the repo -- dp_serve, dpho_sched and the
// hpc::ProcessCluster scheduler with its dpho_worker children: a loopback
// listener on an ephemeral port, and frames of a 4-byte big-endian length
// followed by that many bytes of compact JSON.  The framing is deliberately
// dumb: no versioning beyond the JSON payload's "t" tag (net/wire.hpp), no
// compression, no TLS -- every peer is local, exactly like the paper's
// one-node Dask deployment (section 2.2.5) where scheduler and workers share
// the batch node.
//
// Server-side reads are non-blocking: FrameReader accumulates whatever bytes
// are available and yields complete frames, and net::Loop (net/loop.hpp)
// polls the listener and every connection's reader from one thread.  Clients
// and workers use the blocking read_frame.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace dpho::hpc::net {

/// Maximum accepted frame payload (16 MiB); a length prefix beyond this is
/// treated as a protocol violation (the peer is declared dead).
inline constexpr std::uint32_t kMaxFramePayload = 16u * 1024u * 1024u;

/// A loopback TCP listener on an ephemeral port.  Non-copyable; closes the
/// socket on destruction.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds 127.0.0.1:0 and listens; throws util::IoError on failure.
  void open();

  /// Closes the socket (idempotent).
  void close();

  /// Closes and re-opens on a fresh ephemeral port -- the real backend of
  /// FaultKind::kSchedulerRestart.  Established connections survive; only
  /// the accept queue is torn down.
  void rebind();

  /// Accepts one pending connection without blocking; returns the new
  /// non-blocking fd, or -1 when none is pending.
  int accept_nonblocking() const;

  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port` (blocking) and returns the fd; throws
/// util::IoError on failure.  Used by the worker side.
int connect_loopback(std::uint16_t port);

/// Makes `fd` non-blocking; throws util::IoError on failure.
void set_nonblocking(int fd);

/// Writes one complete frame (length prefix + payload).  Blocks until the
/// frame is fully queued (local sockets: effectively immediate) and returns
/// false when the peer is gone (EPIPE/ECONNRESET) instead of raising
/// SIGPIPE -- or, on a non-blocking fd, when the peer accepted no byte for
/// one second (it is not reading; the frame may be half sent, so the caller
/// must drop the connection).  Throws util::IoError on unexpected errors.
bool write_frame(int fd, const std::string& payload);

/// Reads one complete frame from a *blocking* fd (the worker side's view of
/// the scheduler connection).  Returns nullopt on orderly EOF or connection
/// reset; throws util::IoError on unexpected errors or protocol violations.
/// `max_payload` caps the declared length (checked before the payload buffer
/// is allocated).
std::optional<std::string> read_frame(int fd,
                                      std::uint32_t max_payload = kMaxFramePayload);

/// Why a FrameReader stopped accepting input.
enum class FrameError {
  kNone,       // connection healthy
  kClosed,     // orderly EOF from the peer
  kReset,      // connection reset or unexpected recv error
  kOversized,  // declared frame length exceeded the reader's cap
};

std::string to_string(FrameError error);

/// Incremental frame decoder for one connection.
class FrameReader {
 public:
  FrameReader() = default;
  /// Caps the declared payload length this reader accepts.  The cap is
  /// enforced against the 4-byte length prefix as soon as it arrives --
  /// BEFORE any payload-sized allocation -- so a hostile or corrupt peer
  /// cannot drive an unbounded resize; violation surfaces as
  /// FrameError::kOversized rather than being conflated with EOF.
  explicit FrameReader(std::uint32_t max_payload) : max_payload_(max_payload) {}

  /// Drains every byte currently readable from `fd` (non-blocking).
  /// Returns false when the peer closed the connection or violated the
  /// protocol (see error()); decoded frames remain available.
  bool drain(int fd);

  /// Pops the next complete frame payload, if any.
  std::optional<std::string> next();

  bool closed() const { return error_ != FrameError::kNone; }
  FrameError error() const { return error_; }
  std::uint32_t max_payload() const { return max_payload_; }
  /// The offending declared length after a kOversized error (diagnostics).
  std::uint32_t oversized_length() const { return oversized_length_; }

 private:
  void slice_frames();

  std::uint32_t max_payload_ = kMaxFramePayload;
  std::vector<char> buffer_;
  std::deque<std::string> frames_;
  FrameError error_ = FrameError::kNone;
  std::uint32_t oversized_length_ = 0;
};

}  // namespace dpho::hpc::net
