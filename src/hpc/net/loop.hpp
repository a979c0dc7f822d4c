// The one poll loop behind every daemon in the repo.
//
// dp_serve's IO thread, dpho_sched's serve loop and hpc::ProcessCluster's
// pump each listen on a loopback port, accept clients, drain every
// connection through a capped FrameReader and act on complete frames.  Loop
// does that once; each daemon keeps only its handlers.
//
// One thread calls poll().  A connection whose peer closed, reset or overran
// the frame cap goes to `on_closed` while its fd can still answer, then is
// retired.  send() may run on any thread: the connection's write mutex
// serializes replies, and the shared_ptr keeps the fd open until the loop
// and every in-flight reply let go.  A peer that stops reading is dropped
// after a one-second write stall (write_frame), so it cannot wedge a daemon.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hpc/net/frame.hpp"

namespace dpho::hpc::net {

/// One accepted connection.  Closes its fd on destruction.
struct Connection {
  Connection(int socket_fd, std::uint32_t max_frame_bytes);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  FrameReader reader;  // the polling thread only
  std::mutex write_mutex;
  std::atomic<bool> alive{true};  // cleared once dropped or retired
  const std::chrono::steady_clock::time_point accepted_at;
};

using ConnectionPtr = std::shared_ptr<Connection>;

class Loop {
 public:
  using FrameHandler =
      std::function<void(const ConnectionPtr&, const std::string& payload)>;
  using CloseHandler = std::function<void(const ConnectionPtr&)>;

  /// `max_frame_bytes` caps every connection's FrameReader.
  explicit Loop(std::uint32_t max_frame_bytes = kMaxFramePayload)
      : max_frame_bytes_(max_frame_bytes) {}
  ~Loop() { close_all(); }
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// The listener poll() accepts from.  Closing or rebinding it leaves
  /// established connections alone.
  Listener& listener() { return listener_; }
  const Listener& listener() const { return listener_; }
  const std::vector<ConnectionPtr>& connections() const { return connections_; }

  /// Closes the listener and drops every connection.
  void close_all();

  /// One round: waits up to `timeout_seconds` for traffic, accepts, drains
  /// and dispatches as described above.  Handlers may send() and drop() but
  /// must not poll().  Returns the number of connections accepted.
  std::size_t poll(double timeout_seconds, const FrameHandler& on_frame,
                   const CloseHandler& on_closed = {});

  /// Writes one frame; false when the connection is dead or the write failed
  /// (the connection is then dropped).  Thread-safe.
  static bool send(const ConnectionPtr& connection, const std::string& payload);

  /// Marks the connection dead and shuts its socket down; the next poll()
  /// retires it.  Thread-safe and idempotent.
  static void drop(const ConnectionPtr& connection);

 private:
  std::uint32_t max_frame_bytes_;
  Listener listener_;
  std::vector<ConnectionPtr> connections_;
};

}  // namespace dpho::hpc::net
