#include "hpc/net/loop.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace dpho::hpc::net {

Connection::Connection(int socket_fd, std::uint32_t max_frame_bytes)
    : fd(socket_fd),
      reader(max_frame_bytes),
      accepted_at(std::chrono::steady_clock::now()) {}

Connection::~Connection() { ::close(fd); }

void Loop::close_all() {
  listener_.close();
  for (const ConnectionPtr& connection : connections_) drop(connection);
  connections_.clear();
}

std::size_t Loop::poll(double timeout_seconds, const FrameHandler& on_frame,
                       const CloseHandler& on_closed) {
  std::vector<::pollfd> fds;
  fds.reserve(connections_.size() + 1);
  if (listener_.is_open()) fds.push_back({listener_.fd(), POLLIN, 0});
  for (const ConnectionPtr& connection : connections_) {
    fds.push_back({connection->fd, POLLIN, 0});
  }
  const int timeout_ms =
      std::max(0, static_cast<int>(std::lround(timeout_seconds * 1000.0)));
  if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
    throw util::IoError(std::string("poll failed: ") + std::strerror(errno));
  }

  std::size_t accepted = 0;
  for (int fd; (fd = listener_.accept_nonblocking()) >= 0; ++accepted) {
    connections_.push_back(std::make_shared<Connection>(fd, max_frame_bytes_));
  }

  for (std::size_t i = 0; i < connections_.size();) {
    const ConnectionPtr connection = connections_[i];
    bool open = connection->alive.load(std::memory_order_acquire);
    if (open) {
      open = connection->reader.drain(connection->fd);
      while (connection->alive.load(std::memory_order_acquire)) {
        const std::optional<std::string> frame = connection->reader.next();
        if (!frame) break;
        on_frame(connection, *frame);
      }
      open = open && connection->alive.load(std::memory_order_acquire);
    }
    if (open) {
      ++i;
      continue;
    }
    if (on_closed) on_closed(connection);
    connection->alive.store(false, std::memory_order_release);
    connections_.erase(connections_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return accepted;
}

bool Loop::send(const ConnectionPtr& connection, const std::string& payload) {
  bool sent = false;
  {
    const std::scoped_lock lock(connection->write_mutex);
    if (!connection->alive.load(std::memory_order_acquire)) return false;
    try {
      sent = write_frame(connection->fd, payload);
    } catch (const util::IoError&) {
      // Unexpected send errors retire the peer like a vanished one.
    }
  }
  if (!sent) drop(connection);
  return sent;
}

void Loop::drop(const ConnectionPtr& connection) {
  if (connection->alive.exchange(false, std::memory_order_acq_rel)) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
}

}  // namespace dpho::hpc::net
