#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dpho::serve {

namespace {

/// Batch-size distribution in the deterministic section: the layout is part
/// of the metric's identity, so every registrant must agree on it.
obs::Histogram& batch_histogram() {
  return obs::metrics().histogram("serve.batch_frames",
                                  obs::BucketLayout::exponential(1.0, 2.0, 10),
                                  obs::Section::kDeterministic);
}

void record_timing(const char* name, double seconds) {
  obs::metrics()
      .histogram(name, obs::BucketLayout::timing_seconds(), obs::Section::kTiming)
      .record(seconds);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      archive_(dp::ModelArchive::open(options_.archive_dir)),
      cache_(archive_, options_.cache_capacity),
      loop_(options_.max_frame_bytes) {
  if (options_.max_queue == 0) {
    throw util::ValueError("serve: max_queue must be >= 1");
  }
  options_.threads = std::max<std::size_t>(1, options_.threads);
  for (const std::string& id : archive_.select(options_.selector)) {
    const dp::ArchiveEntry& entry = archive_.at(id);
    served_[id] = entry.num_atoms;
    CatalogModel model;
    model.id = entry.id;
    model.rank = entry.rank;
    model.num_atoms = entry.num_atoms;
    model.spec = entry.spec.describe();
    model.objectives = entry.objectives;
    catalog_.push_back(std::move(model));
  }
}

Server::~Server() { stop(); }

void Server::start() {
  loop_.listener().open();
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread(&Server::io_loop, this);
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    workers_.emplace_back(&Server::worker_loop, this);
  }
  obs::events().emit("serve.start", {{"port", std::size_t{port()}},
                                     {"models", catalog_.size()},
                                     {"threads", options_.threads}});
}

void Server::request_drain() {
  draining_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  obs::events().emit("serve.drain", {});
}

void Server::wait() {
  std::unique_lock lock(queue_mutex_);
  drained_cv_.wait(lock, [&] {
    return drain_complete_ || stopped_.load(std::memory_order_acquire);
  });
}

void Server::stop() {
  if (stop_called_.exchange(true)) {
    // A second caller still blocks until the first finished tearing down.
    wait();
    return;
  }
  {
    // Under the lock: a worker between its wait predicate and its block
    // would otherwise miss this notify and never return.
    const std::scoped_lock lock(queue_mutex_);
    running_.store(false, std::memory_order_release);
  }
  queue_cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  loop_.close_all();  // threads are gone: nobody else holds a connection
  obs::events().emit("serve.stop",
                     {{"served", requests_served_.load(std::memory_order_relaxed)}});
  {
    const std::scoped_lock lock(queue_mutex_);  // as for running_ above
    queue_.clear();
    stopped_.store(true, std::memory_order_release);
  }
  drained_cv_.notify_all();
}

bool Server::idle() const {
  return queue_.empty() && in_flight_ == 0;  // caller holds queue_mutex_
}

void Server::io_loop() {
  const auto on_frame = [this](const hpc::net::ConnectionPtr& connection,
                               const std::string& payload) {
    handle_frame(connection, payload);
  };
  const auto on_closed = [this](const hpc::net::ConnectionPtr& connection) {
    handle_close(connection);
  };
  std::size_t active = 0;
  while (running_.load(std::memory_order_acquire)) {
    if (draining_.load(std::memory_order_acquire)) {
      loop_.listener().close();  // no new connections during a drain
    }
    // Short timeout so stop/drain flags are observed promptly even when no
    // client traffic arrives.
    const std::size_t accepted = loop_.poll(0.020, on_frame, on_closed);
    if (accepted > 0) {
      obs::metrics().counter("serve.connections").add(
          static_cast<std::int64_t>(accepted));
    }
    if (loop_.connections().size() != active) {
      active = loop_.connections().size();
      obs::metrics().gauge("serve.connections_active")
          .set(static_cast<double>(active));
    }

    if (draining_.load(std::memory_order_acquire)) {
      const std::scoped_lock lock(queue_mutex_);
      if (idle()) break;
    }
  }
  {
    const std::scoped_lock lock(queue_mutex_);
    drain_complete_ = true;
  }
  drained_cv_.notify_all();
}

void Server::handle_close(const hpc::net::ConnectionPtr& connection) {
  const hpc::net::FrameReader& reader = connection->reader;
  if (reader.error() == hpc::net::FrameError::kOversized) {
    obs::metrics().counter("serve.oversized").add();
    send_error(connection, 0, ErrorCode::kTooLarge,
               "declared frame of " + std::to_string(reader.oversized_length()) +
                   " bytes exceeds the " +
                   std::to_string(options_.max_frame_bytes) + "-byte cap");
    return;
  }
  // kNone: a reply write failed (the peer vanished or stopped reading).
  obs::metrics().counter("serve.disconnects").add();
  obs::events().emit("serve.disconnect", {{"error", to_string(reader.error())}});
}

void Server::handle_frame(const hpc::net::ConnectionPtr& connection,
                          const std::string& payload) {
  // The id is recovered before the request is decoded -- from the raw bytes
  // when the parser refuses them -- so even a refusal carries it; an id no
  // double holds exactly is refused under id 0.
  util::Json message;
  std::string type;
  std::uint64_t id = 0;
  try {
    message = hpc::net::parse_request(payload, id);
    type = message_type(message);
  } catch (const std::exception& e) {
    send_error(connection, id, ErrorCode::kBadRequest, e.what());
    return;
  }
  if (type == kMsgCatalog) {
    hpc::net::Loop::send(connection, encode_catalog_reply(id, catalog_).dump());
    return;
  }
  if (type != kMsgEval) {
    send_error(connection, id, ErrorCode::kBadRequest,
               "unknown message type " + type);
    return;
  }
  // Batch ceiling first, so the refusal is typed too_large (not the generic
  // bad_request the decoder's ValueError would collapse it into).
  if (message.contains("frames") && message.at("frames").is_array() &&
      message.at("frames").as_array().size() > kMaxBatchFrames) {
    send_error(connection, id, ErrorCode::kTooLarge,
               "batch of " +
                   std::to_string(message.at("frames").as_array().size()) +
                   " frames exceeds " + std::to_string(kMaxBatchFrames));
    return;
  }
  EvalRequest request;
  try {
    request = decode_eval_request(message);
  } catch (const std::exception& e) {
    send_error(connection, id, ErrorCode::kBadRequest, e.what());
    return;
  }
  handle_eval(connection, std::move(request));
}

void Server::handle_eval(const hpc::net::ConnectionPtr& connection,
                         EvalRequest request) {
  const auto served = served_.find(request.model);
  if (served == served_.end()) {
    send_error(connection, request.id, ErrorCode::kUnknownModel,
               "model " + request.model + " is not served");
    return;
  }
  for (const md::Frame& frame : request.frames) {
    if (frame.positions.size() != served->second) {
      send_error(connection, request.id, ErrorCode::kBadRequest,
                 "frame holds " + std::to_string(frame.positions.size()) +
                     " atoms; model " + request.model + " expects " +
                     std::to_string(served->second));
      return;
    }
  }
  const std::size_t batch = request.frames.size();
  const std::uint64_t id = request.id;
  const std::string model = request.model;
  {
    const std::scoped_lock lock(queue_mutex_);
    if (draining_.load(std::memory_order_acquire) ||
        queue_.size() >= options_.max_queue) {
      obs::metrics().counter("serve.overload").add();
      send_error(connection, id, ErrorCode::kOverloaded,
                 draining_.load(std::memory_order_acquire)
                     ? "daemon is draining"
                     : "request queue is full");
      return;
    }
    queue_.push_back(Job{connection, std::move(request),
                         std::chrono::steady_clock::now()});
    obs::metrics().gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
  obs::metrics().counter("serve.requests").add();
  obs::metrics().counter("serve.frames").add(static_cast<std::int64_t>(batch));
  batch_histogram().record(static_cast<double>(batch));
  obs::events().emit("serve.request",
                     {{"id", id}, {"model", model}, {"frames", batch}});
}

void Server::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return !queue_.empty() || !running_.load(std::memory_order_acquire);
      });
      if (!running_.load(std::memory_order_acquire)) return;  // hard stop
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      obs::metrics().gauge("serve.queue_depth")
          .set(static_cast<double>(queue_.size()));
    }
    process(std::move(job));
    {
      const std::scoped_lock lock(queue_mutex_);
      --in_flight_;
      if (idle()) drained_cv_.notify_all();
    }
  }
}

void Server::process(Job job) {
  const auto started = std::chrono::steady_clock::now();
  record_timing("serve.queue_wait_seconds",
                std::chrono::duration<double>(started - job.enqueued).count());
  if (options_.debug_delay_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.debug_delay_seconds));
  }
  try {
    const std::shared_ptr<const dp::Potential> potential =
        cache_.get(job.request.model);
    EvalReply reply;
    reply.id = job.request.id;
    reply.model = job.request.model;
    reply.energies.reserve(job.request.frames.size());
    for (const md::Frame& frame : job.request.frames) {
      const md::ForceEnergy result = potential->evaluate(frame);
      reply.energies.push_back(result.energy);
      if (job.request.want_forces) {
        std::vector<double> flat;
        flat.reserve(result.forces.size() * 3);
        for (const md::Vec3& f : result.forces) {
          flat.push_back(f[0]);
          flat.push_back(f[1]);
          flat.push_back(f[2]);
        }
        reply.forces.push_back(std::move(flat));
      }
    }
    // Count before the write hits the wire: a client that has its reply in
    // hand must never observe a requests_served() that excludes it.
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("serve.replies").add();
    hpc::net::Loop::send(job.connection, encode_eval_reply(reply).dump());
    record_timing("serve.request_seconds",
                  std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                job.enqueued)
                      .count());
    obs::events().emit("serve.reply", {{"id", job.request.id},
                                       {"model", job.request.model},
                                       {"frames", reply.energies.size()}});
  } catch (const util::ValueError& e) {
    // The request's own geometry is invalid (a box under twice the cutoff,
    // non-finite coordinates): the client's fault, not the daemon's.
    send_error(job.connection, job.request.id, ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    send_error(job.connection, job.request.id, ErrorCode::kInternal, e.what());
  }
}

void Server::send_error(const hpc::net::ConnectionPtr& connection,
                        std::uint64_t id, ErrorCode code,
                        const std::string& message) {
  obs::metrics().counter("serve.errors").add();
  obs::metrics().counter("serve.errors." + to_string(code)).add();
  obs::events().emit("serve.error",
                     {{"id", id}, {"code", to_string(code)}, {"message", message}});
  hpc::net::Loop::send(connection,
                       encode_error(ErrorReply{id, code, message}).dump());
}

}  // namespace dpho::serve
