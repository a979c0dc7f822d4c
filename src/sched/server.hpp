// The dpho_sched daemon shell: an hpc::net::Loop in front of one Scheduler.
//
// Single-threaded by design: the Scheduler interleaves N engine event loops
// that share RNGs, archives and one TaskMux, so the server multiplexes
// client sockets AND run stepping from one thread instead of spawning
// request threads.  Each round polls the loop (net/loop.hpp: accept, drain
// each connection's FrameReader, length-capped before allocation), answers
// each request inline, then gives the scheduler one step() -- with a
// process-backend pool the step's pump doubles as the round's pacing wait;
// an idle scheduler waits in the loop's poll instead.  A client that stops
// reading its replies is dropped after a one-second write stall, so it
// cannot wedge the daemon for everyone else.
//
// Requests never block on evaluation work: submit returns once the initial
// wave is queued at the mux, status/list/cancel are O(runs), and a finished
// run's record is read back from its result.json artifact.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "hpc/net/loop.hpp"
#include "sched/scheduler.hpp"

namespace dpho::sched {

struct ServerOptions {
  SchedulerOptions scheduler;
  /// Per-connection frame cap; a larger declared length drops the peer.
  std::uint32_t max_frame_bytes = hpc::net::kMaxFramePayload;
  /// Pool-driving budget handed to Scheduler::step each round; also how
  /// long an idle round waits for traffic, so the daemon does not spin.
  double step_wait_seconds = 0.002;
};

class Server {
 public:
  Server(ServerOptions options, const core::Evaluator& evaluator);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds an ephemeral loopback port (valid port() afterwards).
  void start();
  std::uint16_t port() const { return loop_.listener().port(); }

  Scheduler& scheduler() { return scheduler_; }

  /// One round: accept, read, reply, step.  Tests drive this directly.
  void poll_once();

  /// poll_once until request_stop(); returns once stopped.
  void serve_forever();

  /// Stops serve_forever after its current round.  Safe from a signal
  /// watcher thread; idempotent.
  void request_stop() { stop_.store(true, std::memory_order_release); }
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  /// Requests answered (result or error) since start().
  std::uint64_t requests_served() const { return requests_served_; }

 private:
  void handle_frame(const hpc::net::ConnectionPtr& connection,
                    const std::string& payload);
  /// The request->reply map; throws SchedError / util::Error on refusal.
  util::Json dispatch(const util::Json& message);

  ServerOptions options_;
  Scheduler scheduler_;
  hpc::net::Loop loop_;
  std::atomic<bool> stop_{false};
  std::uint64_t requests_served_ = 0;
};

}  // namespace dpho::sched
