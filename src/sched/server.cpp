#include "sched/server.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace dpho::sched {

Server::Server(ServerOptions options, const core::Evaluator& evaluator)
    : options_(std::move(options)),
      scheduler_(options_.scheduler, evaluator),
      loop_(options_.max_frame_bytes) {}

Server::~Server() = default;

void Server::start() { loop_.listener().open(); }

void Server::serve_forever() {
  while (!stopping()) poll_once();
}

void Server::poll_once() {
  // An idle scheduler has nothing to step, so the round waits for traffic
  // instead of spinning (the process backend paces busy rounds itself).
  const std::size_t accepted = loop_.poll(
      scheduler_.idle() ? options_.step_wait_seconds : 0.0,
      [this](const hpc::net::ConnectionPtr& connection,
             const std::string& payload) { handle_frame(connection, payload); });
  if (accepted > 0) {
    obs::metrics().counter("sched.connections_total").add(
        static_cast<std::int64_t>(accepted));
  }
  if (!scheduler_.idle()) scheduler_.step(options_.step_wait_seconds);
}

void Server::handle_frame(const hpc::net::ConnectionPtr& connection,
                          const std::string& payload) {
  // Recover a correlation id as early as possible -- from the raw bytes when
  // the parser refuses them -- so even a refusal can be matched to its
  // request; an id no double holds exactly is refused under id 0.
  std::uint64_t id = 0;
  util::Json reply;
  try {
    reply = dispatch(hpc::net::parse_request(payload, id));
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
  hpc::net::Loop::send(connection, reply.dump());
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
