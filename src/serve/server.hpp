// The dp_serve daemon core: batched inference over archived potentials.
//
// One IO thread runs the hpc::net::Loop (net/loop.hpp): a loopback listener
// plus every client connection, each behind a FrameReader capped at
// `max_frame_bytes`, so an oversized length prefix is refused before any
// payload allocation.  Complete frames are decoded into protocol requests
// and pushed onto a bounded queue; `threads` worker threads pop requests,
// resolve the model through the LRU ModelCache, run the analytic primal path
// (dp::Potential::evaluate -- FastGraph forward, no tape) over the batch, and
// write the reply themselves through Loop::send (per-connection write
// mutex).  A client that stops reading its replies is dropped after a
// one-second write stall instead of blocking the thread that answers it.
//
// Backpressure is explicit: when the queue is full (or the daemon is
// draining) the IO thread immediately answers `overloaded` instead of
// buffering without bound.  request_drain() -- wired to SIGTERM in the
// dp_serve binary -- closes the listener, lets queued and in-flight requests
// finish and reply, then shuts the workers down; stop() is the hard variant.
//
// Observability (see DESIGN.md section 12 for the catalogue): serve.*
// counters and gauges in the deterministic metrics section, batch-size
// histogram, request/queue-wait timing histograms, and serve.* timeline
// events -- the chaos tests read the timeline to witness a SIGKILL landing
// between serve.request and serve.reply.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dp/archive.hpp"
#include "hpc/net/loop.hpp"
#include "serve/model_cache.hpp"
#include "serve/protocol.hpp"

namespace dpho::serve {

struct ServerOptions {
  std::filesystem::path archive_dir;
  /// Which archive entries are served (ModelArchive::select grammar).
  std::string selector = "all";
  std::size_t cache_capacity = 4;   // resident models (LRU beyond this)
  std::size_t threads = 2;          // evaluation worker threads
  std::size_t max_queue = 64;       // queued requests before overload replies
  /// Per-connection frame cap; a larger declared length closes the peer.
  std::uint32_t max_frame_bytes = hpc::net::kMaxFramePayload;
  /// Test/bench hook: hold each request in the worker for this long before
  /// evaluating, so overload/drain/kill races become deterministic.
  double debug_delay_seconds = 0.0;
};

class Server {
 public:
  /// Opens the archive and resolves the selection; start() begins serving.
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds an ephemeral loopback port and spawns the IO + worker threads.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return loop_.listener().port(); }

  /// The served catalog rows, in archive order.
  const std::vector<CatalogModel>& catalog() const { return catalog_; }

  /// Graceful drain: stop accepting connections and new requests, finish and
  /// answer everything already queued or in flight, then stop the threads.
  /// Safe to call from a signal-watching thread; idempotent.
  void request_drain();

  /// Blocks until a drain (or stop) completed.
  void wait();

  /// Hard shutdown: abandons queued requests and joins all threads.
  void stop();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Requests answered with a result (not an error) since start().
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  const ModelCache& cache() const { return cache_; }

 private:
  struct Job {
    hpc::net::ConnectionPtr connection;
    EvalRequest request;
    std::chrono::steady_clock::time_point enqueued;
  };

  void io_loop();
  void worker_loop();
  void handle_frame(const hpc::net::ConnectionPtr& connection,
                    const std::string& payload);
  /// Counts a dropped peer; answers a frame-cap violation with too_large.
  void handle_close(const hpc::net::ConnectionPtr& connection);
  void handle_eval(const hpc::net::ConnectionPtr& connection,
                   EvalRequest request);
  void process(Job job);
  void send_error(const hpc::net::ConnectionPtr& connection, std::uint64_t id,
                  ErrorCode code, const std::string& message);
  /// True once the queue is empty and no worker holds a request.
  bool idle() const;

  ServerOptions options_;
  dp::ModelArchive archive_;
  ModelCache cache_;
  std::vector<CatalogModel> catalog_;
  std::map<std::string, std::size_t> served_;  // id -> expected atom count

  hpc::net::Loop loop_;  // the IO thread polls it
  std::thread io_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;    // workers wait here
  std::condition_variable drained_cv_;  // wait() blocks here
  std::deque<Job> queue_;
  std::size_t in_flight_ = 0;        // requests popped but not yet replied
  bool drain_complete_ = false;      // guarded by queue_mutex_

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> stop_called_{false};
  std::atomic<std::uint64_t> requests_served_{0};
};

}  // namespace dpho::serve
