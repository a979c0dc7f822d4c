#include "sched/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace dpho::sched {

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options, const core::Evaluator& evaluator)
    : options_(std::move(options)),
      scheduler_(options_.scheduler, evaluator) {}

Server::~Server() = default;

void Server::start() { listener_.open(); }

void Server::serve_forever() {
  while (!stopping()) poll_once();
}

void Server::poll_once() {
  accept_pending();

  std::vector<pollfd> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, connection] : connections_) {
    fds.push_back(pollfd{fd, POLLIN, 0});
  }
  bool served = false;
  if (!fds.empty() &&
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 0) > 0) {
    for (const pollfd& entry : fds) {
      if ((entry.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const auto it = connections_.find(entry.fd);
      if (it == connections_.end()) continue;
      served = true;
      if (!service_connection(*it->second)) connections_.erase(it);
    }
  }

  if (!scheduler_.idle()) {
    scheduler_.step(options_.step_wait_seconds);
  } else if (!served) {
    // Nothing to step and nothing read: sleep instead of spinning (the
    // process backend would otherwise pace us inside the mux pump).
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.step_wait_seconds));
  }
}

void Server::accept_pending() {
  if (!listener_.is_open()) return;
  for (;;) {
    const int fd = listener_.accept_nonblocking();
    if (fd < 0) return;
    connections_.emplace(
        fd, std::make_unique<Connection>(fd, options_.max_frame_bytes));
    obs::metrics().counter("sched.connections_total").add(1);
  }
}

bool Server::service_connection(Connection& connection) {
  const bool healthy = connection.reader.drain(connection.fd);
  while (std::optional<std::string> payload = connection.reader.next()) {
    handle_frame(connection, *payload);
  }
  return healthy;
}

void Server::handle_frame(Connection& connection, const std::string& payload) {
  // Recover a correlation id as early as possible so even a refusal can be
  // matched to its request.
  std::uint64_t id = 0;
  util::Json reply;
  try {
    const util::Json message = util::Json::parse(payload);
    // Only a wire-exact id (an integer below 2^53) is cast; the decoder
    // refuses any other one under id 0.
    const double raw_id = message.number_or("id", -1.0);
    if (raw_id >= 0.0 && raw_id < 0x1p53 && raw_id == std::floor(raw_id)) {
      id = static_cast<std::uint64_t>(raw_id);
    }
    reply = dispatch(message);
  } catch (const SchedError& e) {
    reply = encode_error(ErrorReply{id, e.code(), e.what()});
  } catch (const util::ParseError& e) {
    reply = encode_error(ErrorReply{id, ErrorCode::kBadRequest, e.what()});
  } catch (const util::ValueError& e) {
    reply = encode_error(ErrorReply{id, ErrorCode::kBadRequest, e.what()});
  } catch (const std::exception& e) {
    reply = encode_error(ErrorReply{id, ErrorCode::kInternal, e.what()});
  }
  ++requests_served_;
  obs::metrics().counter("sched.requests_total").add(1);
  hpc::net::write_frame(connection.fd, reply.dump());
}

util::Json Server::dispatch(const util::Json& message) {
  const std::string type = message_type(message);
  if (type == kMsgSubmit) {
    const SubmitRequest request = decode_submit_request(message);
    const RunStatus status = scheduler_.submit(request.spec);
    util::Json body;
    body["run"] = run_status_to_json(status);
    return encode_result_reply(ResultReply{request.id, std::move(body)});
  }
  if (type == kMsgStatus) {
    const StatusRequest request = decode_status_request(message);
    const RunStatus status = scheduler_.status(request.run);
    util::Json body;
    body["run"] = run_status_to_json(status);
    if (request.want_record) {
      // result() refuses with kNotFinished while the run is active.
      body["record"] = scheduler_.result(request.run);
    }
    return encode_result_reply(ResultReply{request.id, std::move(body)});
  }
  if (type == kMsgCancel) {
    const CancelRequest request = decode_cancel_request(message);
    const RunStatus status = scheduler_.cancel(request.run);
    util::Json body;
    body["run"] = run_status_to_json(status);
    return encode_result_reply(ResultReply{request.id, std::move(body)});
  }
  if (type == kMsgList) {
    const ListRequest request = decode_list_request(message);
    util::JsonArray runs;
    for (const RunStatus& status : scheduler_.list()) {
      runs.push_back(run_status_to_json(status));
    }
    util::Json body;
    body["runs"] = util::Json(std::move(runs));
    return encode_result_reply(ResultReply{request.id, std::move(body)});
  }
  throw SchedError(ErrorCode::kBadRequest, "unknown request type \"" + type +
                                               "\"");
}

}  // namespace dpho::sched
