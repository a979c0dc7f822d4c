#include "hpc/process_cluster.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "hpc/backoff.hpp"
#include "hpc/net/wire.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace dpho::hpc {

namespace {

constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);
/// Sentinel finish_at for an in-flight task whose evaluation died with the
/// scheduler; restore() reports such ids back for re-submission.
constexpr double kUnresolvedFinishAt = -1.0;

void record_worker_gauges(std::size_t live) {
  obs::metrics().gauge("process.live_workers").set(static_cast<double>(live));
}

}  // namespace

ProcessCluster::ProcessCluster(const ClusterSpec& cluster,
                               const FarmConfig& farm,
                               ProcessClusterConfig config)
    : cluster_(cluster),
      farm_(farm),
      config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()) {
  // Checked here: a worker that cannot exec only dies before its handshake,
  // and the run would quietly degrade to in-process evaluation.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(config_.worker_binary, ec) ||
      ::access(config_.worker_binary.c_str(), X_OK) != 0) {
    throw util::ValueError("process cluster: worker binary \"" +
                           config_.worker_binary.string() +
                           "\" is not an executable file");
  }
  if (config_.num_workers == 0) config_.num_workers = farm_.job.nodes;
  if (config_.num_workers == 0) {
    throw util::ValueError("process cluster: need at least one worker");
  }
  if (config_.heartbeat_interval_seconds <= 0.0 ||
      config_.heartbeat_timeout_seconds <= config_.heartbeat_interval_seconds) {
    throw util::ValueError(
        "process cluster: heartbeat timeout must exceed the interval");
  }
  if (config_.sim_minutes_per_real_second <= 0.0) {
    throw util::ValueError(
        "process cluster: sim_minutes_per_real_second must be positive");
  }
  workers_.resize(config_.num_workers);
  ensure_listening();
  record_worker_gauges(config_.num_workers);
}

ProcessCluster::~ProcessCluster() {
  try {
    shutdown_workers();
  } catch (...) {
    // Destruction must not throw; leftover children were SIGKILLed below.
  }
}

double ProcessCluster::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double ProcessCluster::session_minutes() const {
  return session_offset_minutes_ + (now_seconds() - session_started_) *
                                       config_.sim_minutes_per_real_second;
}

void ProcessCluster::ensure_listening() {
  if (!loop_.listener().is_open()) loop_.listener().open();
}

void ProcessCluster::spawn_worker(std::size_t index) {
  Worker& w = workers_[index];
  std::vector<std::string> args;
  args.push_back(config_.worker_binary.string());
  args.push_back("--port");
  args.push_back(std::to_string(loop_.listener().port()));
  args.push_back("--token");
  args.push_back(std::to_string(index));
  for (const std::string& extra : config_.worker_extra_args) {
    args.push_back(extra);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const ::pid_t pid = ::fork();
  if (pid < 0) {
    throw util::IoError("process cluster: fork failed: " +
                        std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    // exec failed; exit without running any parent-owned destructors.
    ::_exit(127);
  }
  w.pid = pid;
  w.connection.reset();
  w.spawned = true;
  w.alive = true;
  w.spawn_deadline = now_seconds() + config_.spawn_timeout_seconds;
  w.task.reset();
  w.tasks_run = 0;
  obs::events().emit("process.worker_spawn",
                     {{"worker", util::Json(index)},
                      {"pid", util::Json(static_cast<double>(pid))}});
}

void ProcessCluster::spawn_missing_workers() {
  ensure_listening();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i].spawned) spawn_worker(i);
  }
  record_worker_gauges(live_workers());
}

void ProcessCluster::begin_session() {
  if (stream_active_) throw util::ValueError("stream session already active");
  session_batch_ = batches_run_++;
  stream_now_ = 0.0;
  node_failures_ = 0;
  scheduler_restarts_ = 0;
  session_offset_minutes_ = 0.0;
  degraded_warned_ = false;
  tasks_.clear();
  undelivered_.clear();
  delivered_.clear();

  // kSchedulerRestart is real here: tear down and rebind the accept socket.
  // Established worker connections survive (exactly Dask's behavior when the
  // scheduler endpoint flaps); the outage length is charged to the job clock
  // the same way the simulator idles its workers.
  for (const FaultEvent& event : farm_.faults.events) {
    if (event.batch != session_batch_ ||
        event.kind != FaultKind::kSchedulerRestart) {
      continue;
    }
    loop_.listener().rebind();
    session_offset_minutes_ =
        std::max(session_offset_minutes_, event.delay_minutes);
    ++scheduler_restarts_;
    obs::metrics().counter("process.scheduler_rebinds_total").add();
    util::log_info() << "process cluster: scheduler restart at batch "
                     << session_batch_ << ", rebound to port "
                     << loop_.listener().port();
  }

  spawn_missing_workers();
  session_started_ = now_seconds();
  stream_active_ = true;
}

void ProcessCluster::stream_begin() { begin_session(); }

void ProcessCluster::stream_submit(const TaskSpec& spec,
                                   const RemoteWorkFn& local_eval) {
  if (!stream_active_) throw util::ValueError("no stream session active");
  if (tasks_.count(spec.id) != 0) {
    throw util::ValueError("process cluster: duplicate task id " +
                           std::to_string(spec.id));
  }
  Task task;
  task.spec = spec;
  task.local_eval = local_eval;
  tasks_.emplace(spec.id, std::move(task));
  undelivered_.insert(spec.id);
  pump(0.0);
}

StreamCompletion ProcessCluster::deliver(std::size_t id) {
  Task& task = tasks_.at(id);
  task.phase = TaskPhase::kDelivered;
  undelivered_.erase(id);
  stream_now_ = std::max(stream_now_, task.resolved_minutes);
  const StreamCompletion done{id, task.report};
  delivered_.push_back(done);
  obs::events().emit(
      "process.delivery",
      {{"id", util::Json(id)},
       {"status", util::Json(to_string(done.report.status))},
       {"attempts", util::Json(done.report.attempts)},
       {"cause", util::Json(to_string(done.report.cause))}});
  return done;
}

std::optional<StreamCompletion> ProcessCluster::stream_next() {
  if (!stream_active_) throw util::ValueError("no stream session active");
  if (undelivered_.empty()) return std::nullopt;
  // Completions are delivered in task-id order regardless of which worker
  // finished first: the engine's breeding sequence then matches the fault-free
  // run of the same seed bit for bit (real timing only enters the makespan).
  const std::size_t id = *undelivered_.begin();
  while (tasks_.at(id).phase != TaskPhase::kResolved) {
    pump(0.002);
  }
  return deliver(id);
}

std::optional<StreamCompletion> ProcessCluster::stream_try_next(std::size_t lo,
                                                                std::size_t hi) {
  if (!stream_active_) throw util::ValueError("no stream session active");
  // The lowest undelivered id within the range is the only candidate: the
  // id-order delivery contract holds per range exactly as stream_next()
  // enforces it globally.  Unlike stream_next() this never blocks -- a
  // not-yet-resolved candidate just reports "nothing deliverable".
  const auto it = undelivered_.lower_bound(lo);
  if (it == undelivered_.end() || *it >= hi) return std::nullopt;
  if (tasks_.at(*it).phase != TaskPhase::kResolved) return std::nullopt;
  return deliver(*it);
}

BatchReport ProcessCluster::stream_end() {
  if (!stream_active_) throw util::ValueError("no stream session active");
  if (!undelivered_.empty()) {
    throw util::ValueError("stream session still has in-flight tasks");
  }
  BatchReport report;
  std::size_t num_tasks = 0;
  for (const StreamCompletion& done : delivered_) {
    num_tasks = std::max(num_tasks, done.id + 1);
  }
  report.tasks.resize(num_tasks);
  for (const StreamCompletion& done : delivered_) {
    report.tasks[done.id] = done.report;
  }
  report.makespan_minutes = stream_now_;
  report.node_failures = node_failures_;
  report.workers_remaining = live_workers();
  report.scheduler_restarts = scheduler_restarts_;
  clock_minutes_ += stream_now_;
  stream_active_ = false;
  tasks_.clear();
  delivered_.clear();
  return report;
}

BatchReport ProcessCluster::run_batch(const std::vector<TaskSpec>& specs,
                                      const RemoteWorkFn& local_eval) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].id != i) {
      throw util::ValueError("run_batch specs must be indexed 0..n-1");
    }
  }
  stream_begin();
  for (const TaskSpec& spec : specs) stream_submit(spec, local_eval);
  while (stream_next()) {
  }
  return stream_end();
}

double ProcessCluster::remaining_minutes() const {
  return std::max(0.0, farm_.job.wall_limit_minutes - clock_minutes_);
}

std::size_t ProcessCluster::live_workers() const {
  bool any_spawned = false;
  std::size_t alive = 0;
  for (const Worker& w : workers_) {
    any_spawned = any_spawned || w.spawned;
    if (w.alive) ++alive;
  }
  // Before the pool starts, report the configured size (mirrors the sim
  // farm, whose nodes exist from construction).
  return any_spawned ? alive : workers_.size();
}

::pid_t ProcessCluster::worker_pid(std::size_t worker) const {
  if (worker >= workers_.size()) {
    throw util::ValueError("worker index out of range");
  }
  return workers_[worker].pid;
}

// --- Event loop ------------------------------------------------------------

void ProcessCluster::pump(double wait_seconds) {
  reap_zombies();
  loop_.poll(
      wait_seconds,
      [this](const net::ConnectionPtr& connection, const std::string& payload) {
        handle_frame(connection, payload);
      },
      [this](const net::ConnectionPtr& connection) {
        const std::size_t index = worker_of(connection);
        if (index != kNoWorker) {
          handle_worker_death(index, FailureCause::kNodeLoss);
        }
      });
  // A connection that never says hello is dropped after the spawn budget.
  const auto now = std::chrono::steady_clock::now();
  for (const net::ConnectionPtr& connection : loop_.connections()) {
    if (worker_of(connection) == kNoWorker &&
        std::chrono::duration<double>(now - connection->accepted_at).count() >
            config_.spawn_timeout_seconds) {
      net::Loop::drop(connection);
    }
  }
  check_deadlines();
  dispatch_ready_tasks();
  degrade_if_stranded();
}

std::size_t ProcessCluster::worker_of(
    const net::ConnectionPtr& connection) const {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].connection == connection) return i;
  }
  return kNoWorker;
}

void ProcessCluster::handle_frame(const net::ConnectionPtr& connection,
                                  const std::string& payload) {
  const std::size_t index = worker_of(connection);
  try {
    const util::Json msg = util::Json::parse(payload);
    if (index == kNoWorker) {
      adopt(connection, msg);
      return;
    }
    Worker& w = workers_[index];
    const std::string type = net::message_type(msg);
    if (type == net::kMsgHeartbeat) {
      const double now = now_seconds();
      obs::metrics()
          .histogram("process.heartbeat_gap_seconds",
                     obs::BucketLayout::timing_seconds())
          .record(now - w.last_heartbeat);
      w.last_heartbeat = now;
    } else if (type == net::kMsgResult) {
      w.last_heartbeat = now_seconds();
      const std::size_t id = net::result_id(msg);
      if (w.task && *w.task == id) {
        w.task.reset();
        ++w.tasks_run;
        apply_result(id, net::decode_result(msg));
      }
    }
  } catch (const util::Error& e) {
    util::log_warn() << "process cluster: bad frame from "
                     << (index == kNoWorker ? "a new connection (dropped)"
                                            : "worker " + std::to_string(index))
                     << ": " << e.what();
    if (index == kNoWorker) net::Loop::drop(connection);
  }
}

void ProcessCluster::adopt(const net::ConnectionPtr& connection,
                           const util::Json& hello) {
  if (net::message_type(hello) == net::kMsgHello) {
    const std::size_t token = net::hello_token(hello);
    if (token < workers_.size() && workers_[token].alive &&
        !workers_[token].connection) {
      Worker& w = workers_[token];
      w.connection = connection;
      w.last_heartbeat = now_seconds();
      if (!net::Loop::send(
              connection,
              net::encode_init(config_.eval_config_json,
                               config_.heartbeat_interval_seconds)
                  .dump())) {
        handle_worker_death(token, FailureCause::kNodeLoss);
      }
      return;
    }
  }
  net::Loop::drop(connection);
}

void ProcessCluster::check_deadlines() {
  const double now = now_seconds();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    if (!w.alive) continue;

    if (!w.connection) {
      // A child that exits before the handshake (bad binary, exec failure)
      // is detected immediately; otherwise the spawn deadline applies.
      int status = 0;
      if (w.pid > 0 && ::waitpid(w.pid, &status, WNOHANG) == w.pid) {
        w.pid = -1;  // already reaped
        util::log_warn() << "process cluster: worker " << i
                         << " exited before handshake";
        handle_worker_death(i, FailureCause::kNodeLoss);
        continue;
      }
      if (now > w.spawn_deadline) {
        util::log_warn() << "process cluster: worker " << i
                         << " missed the spawn deadline";
        handle_worker_death(i, FailureCause::kNodeLoss);
      }
      continue;
    }

    if (now - w.last_heartbeat > config_.heartbeat_timeout_seconds) {
      util::log_warn() << "process cluster: worker " << i
                       << " heartbeat silent for "
                       << now - w.last_heartbeat << " s; declaring hung";
      handle_worker_death(i, FailureCause::kHungProcess);
      continue;
    }

    if (w.task && config_.task_wall_limit_seconds > 0.0 &&
        now - w.task_started > config_.task_wall_limit_seconds) {
      // Deterministic timeout: the task resolves as kTimeout/kWallLimit and
      // is never retried (rerunning it would blow the limit again); the
      // worker is killed because its evaluation cannot be cancelled.
      const std::size_t id = *w.task;
      Task& task = tasks_.at(id);
      TaskReport report;
      report.status = TaskStatus::kTimeout;
      report.cause = FailureCause::kWallLimit;
      report.sim_minutes = farm_.task_timeout_minutes;
      report.attempts = task.attempt;
      report.payload_attempts = 1;
      report.node = i;
      resolve_task(id, std::move(report));
      w.task.reset();
      util::log_warn() << "process cluster: task " << id
                       << " exceeded the wall limit on worker " << i;
      handle_worker_death(i, FailureCause::kWallLimit);
    }
  }
}

void ProcessCluster::dispatch_ready_tasks() {
  const double now = now_seconds();
  for (const std::size_t id : undelivered_) {
    Task& task = tasks_.at(id);
    if (task.phase != TaskPhase::kPending || task.ready_at > now) continue;

    std::size_t target = kNoWorker;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& w = workers_[i];
      if (w.alive && w.connection && !w.task) {
        target = i;
        break;
      }
    }
    if (target == kNoWorker) return;  // every live worker is busy

    Worker& w = workers_[target];
    ++task.attempt;
    task.phase = TaskPhase::kRunning;
    task.worker = target;
    w.task = id;
    w.task_started = now;
    const double straggle = straggler_seconds_for(id);
    if (!net::Loop::send(w.connection,
                         net::encode_task(task.spec, straggle).dump())) {
      handle_worker_death(target, FailureCause::kNodeLoss);
      return;  // the requeue reset task state; retry on the next pump
    }
    obs::events().emit("process.dispatch",
                       {{"id", util::Json(id)},
                        {"worker", util::Json(target)},
                        {"attempt", util::Json(task.attempt)}});

    // Real chaos: a scripted kKillWorker event SIGKILLs the worker that just
    // received the matching attempt -- the task is mid-flight on a process
    // that is about to die, exactly the scenario the simulator models.
    if (scripted_kill_matches(id, task.attempt)) {
      if (w.pid > 0) ::kill(w.pid, SIGKILL);
      util::log_info() << "process cluster: fault plan killed worker "
                       << target << " running task " << id << " attempt "
                       << task.attempt;
      handle_worker_death(target, FailureCause::kNodeLoss);
      return;  // iterator into undelivered_ is unaffected, but state moved on
    }
  }
}

void ProcessCluster::degrade_if_stranded() {
  if (!stream_active_) return;
  bool unresolved = false;
  for (const std::size_t id : undelivered_) {
    const TaskPhase phase = tasks_.at(id).phase;
    if (phase == TaskPhase::kPending || phase == TaskPhase::kRunning) {
      unresolved = true;
      break;
    }
  }
  if (!unresolved) return;
  for (const Worker& w : workers_) {
    if (w.alive) return;  // someone can still make progress
  }
  if (!config_.allow_inprocess_fallback) {
    throw util::ValueError("process cluster: no live workers remain");
  }
  if (!degraded_warned_) {
    degraded_warned_ = true;
    util::log_warn() << "process cluster: all " << workers_.size()
                     << " workers are dead; degrading to in-process "
                        "evaluation";
    obs::events().emit("process.degraded",
                       {{"workers", util::Json(workers_.size())}});
  }
  for (const std::size_t id : undelivered_) {
    Task& task = tasks_.at(id);
    if (task.phase != TaskPhase::kPending &&
        task.phase != TaskPhase::kRunning) {
      continue;
    }
    if (!task.local_eval) {
      // A restored task has no closure; it should have been re-submitted.
      throw util::ValueError(
          "process cluster: degraded task has no local evaluator");
    }
    ++task.attempt;
    obs::metrics().counter("process.inprocess_evals_total").add();
    apply_result(id, task.local_eval(task.spec));
  }
}

void ProcessCluster::handle_worker_death(std::size_t index,
                                         FailureCause cause) {
  Worker& w = workers_[index];
  if (!w.alive) return;
  w.alive = false;
  if (w.connection) {
    net::Loop::drop(w.connection);
    w.connection.reset();
  }
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);  // idempotent; ESRCH if it already died
    zombies_.push_back(w.pid);
    w.pid = -1;
  }
  ++node_failures_;
  obs::metrics().counter("process.worker_deaths_total").add();
  record_worker_gauges(live_workers());
  obs::events().emit("process.worker_death",
                     {{"worker", util::Json(index)},
                      {"cause", util::Json(to_string(cause))}});

  if (w.task) {
    const std::size_t id = *w.task;
    w.task.reset();
    if (tasks_.count(id) != 0 &&
        tasks_.at(id).phase == TaskPhase::kRunning) {
      requeue_or_fail(id, cause == FailureCause::kHungProcess
                              ? FailureCause::kHungProcess
                              : FailureCause::kNodeLoss);
    }
  }
}

void ProcessCluster::requeue_or_fail(std::size_t task_id, FailureCause cause) {
  Task& task = tasks_.at(task_id);
  const std::size_t last_worker = task.worker;
  task.worker = kNoWorker;
  if (task.attempt >= farm_.max_attempts) {
    TaskReport report;
    report.status = TaskStatus::kNodeFailure;
    report.cause = cause;
    report.attempts = task.attempt;
    report.payload_attempts = 1;
    report.node = last_worker == kNoWorker ? 0 : last_worker;
    resolve_task(task_id, std::move(report));
    return;
  }
  task.phase = TaskPhase::kPending;
  // Deterministic retry pacing: the delay is a pure function of the task's
  // evaluation seed and attempt number (hpc/backoff.hpp), never of how other
  // tasks' completions happened to interleave.
  task.ready_at =
      now_seconds() +
      retry_backoff_seconds(task.spec.eval_seed, task.attempt,
                            config_.retry_backoff_base_seconds,
                            config_.retry_backoff_cap_seconds);
  obs::metrics().counter("process.redispatch_total").add();
  obs::events().emit("process.redispatch",
                     {{"id", util::Json(task_id)},
                      {"attempt", util::Json(task.attempt)},
                      {"cause", util::Json(to_string(cause))}});
}

void ProcessCluster::resolve_task(std::size_t task_id, TaskReport report) {
  Task& task = tasks_.at(task_id);
  task.resolved_minutes = session_minutes();
  report.finish_minute = clock_minutes_ + task.resolved_minutes;
  task.report = std::move(report);
  task.phase = TaskPhase::kResolved;
}

void ProcessCluster::apply_result(std::size_t task_id, WorkResult result) {
  Task& task = tasks_.at(task_id);
  if (task.phase == TaskPhase::kResolved ||
      task.phase == TaskPhase::kDelivered) {
    return;  // e.g. a result racing the wall-limit watchdog
  }

  for (const FaultEvent& event : farm_.faults.events) {
    if (event.batch != session_batch_ || event.task != task_id ||
        event.kind != FaultKind::kCorruptPayload) {
      continue;
    }
    result.fitness.clear();
    result.training_error = true;
    result.cause = FailureCause::kPayloadCorruption;
  }

  // Classification mirrors DaskCluster (taskfarm.cpp): a reported failure
  // beats the timeout check, which beats success.
  TaskReport report;
  report.attempts = task.attempt;
  report.payload_attempts = result.attempts;
  report.node = task.worker == kNoWorker ? 0 : task.worker;
  if (result.training_error) {
    report.sim_minutes = std::min(1.0, result.sim_minutes);
    report.status = TaskStatus::kTrainingError;
    report.cause = result.cause != FailureCause::kNone
                       ? result.cause
                       : FailureCause::kTrainingFailure;
  } else if (result.sim_minutes > farm_.task_timeout_minutes) {
    report.sim_minutes = farm_.task_timeout_minutes;
    report.status = TaskStatus::kTimeout;
    report.cause = result.cause != FailureCause::kNone
                       ? result.cause
                       : FailureCause::kWallLimit;
  } else {
    report.sim_minutes = result.sim_minutes;
    report.status = TaskStatus::kOk;
    report.cause = FailureCause::kNone;
    report.fitness = result.fitness;
  }
  resolve_task(task_id, std::move(report));
}

double ProcessCluster::straggler_seconds_for(std::size_t task_id) const {
  double seconds = 0.0;
  for (const FaultEvent& event : farm_.faults.events) {
    if (event.batch == session_batch_ && event.task == task_id &&
        event.kind == FaultKind::kStraggler) {
      seconds += config_.straggler_sleep_seconds * event.factor;
    }
  }
  return seconds;
}

bool ProcessCluster::scripted_kill_matches(std::size_t task_id,
                                           std::size_t attempt) const {
  for (const FaultEvent& event : farm_.faults.events) {
    if (event.kind == FaultKind::kKillWorker &&
        event.batch == session_batch_ && event.task == task_id &&
        event.attempt == attempt) {
      return true;
    }
  }
  return false;
}

void ProcessCluster::reap_zombies() {
  for (std::size_t i = 0; i < zombies_.size();) {
    int status = 0;
    const ::pid_t reaped = ::waitpid(zombies_[i], &status, WNOHANG);
    if (reaped == zombies_[i] || (reaped < 0 && errno == ECHILD)) {
      zombies_.erase(zombies_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

void ProcessCluster::shutdown_workers() {
  for (Worker& w : workers_) {
    if (w.alive && w.connection) {
      net::Loop::send(w.connection, net::encode_shutdown().dump());
    }
  }
  // Give workers a short grace window to exit on their own, then SIGKILL.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  for (Worker& w : workers_) {
    if (!w.spawned || w.pid <= 0) continue;
    for (;;) {
      int status = 0;
      const ::pid_t reaped = ::waitpid(w.pid, &status, WNOHANG);
      if (reaped == w.pid || (reaped < 0 && errno == ECHILD)) {
        w.pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, &status, 0);
        w.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    w.connection.reset();
    w.alive = false;
  }
  for (const ::pid_t pid : zombies_) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  zombies_.clear();
  loop_.close_all();
}

// --- Checkpointing ---------------------------------------------------------

FarmSnapshot ProcessCluster::snapshot() const {
  FarmSnapshot snap;
  snap.clock_minutes = clock_minutes_;
  snap.live_workers = live_workers();
  snap.tasks_run_on_node.resize(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = workers_[i];
    snap.tasks_run_on_node[i] =
        (w.spawned && !w.alive) ? static_cast<std::size_t>(-1) : w.tasks_run;
  }
  snap.batches_run = batches_run_;
  snap.stream_active = stream_active_;
  if (stream_active_) {
    snap.stream_now = stream_now_;
    snap.stream_batch = session_batch_;
    snap.stream_node_failures = node_failures_;
    snap.stream_scheduler_restarts = scheduler_restarts_;
    snap.stream_free_at.assign(workers_.size(), 0.0);
    for (const std::size_t id : undelivered_) {
      const Task& task = tasks_.at(id);
      InFlightTask entry;
      entry.id = id;
      if (task.phase == TaskPhase::kResolved) {
        entry.finish_at = task.resolved_minutes;
        entry.report = task.report;
      } else {
        // A live worker's half-finished evaluation cannot be serialized; the
        // sentinel tells restore() to report the id back for re-submission.
        entry.finish_at = kUnresolvedFinishAt;
      }
      snap.stream_in_flight.push_back(std::move(entry));
    }
    snap.stream_delivered = delivered_;
  }
  return snap;
}

std::vector<std::size_t> ProcessCluster::restore(const FarmSnapshot& snap) {
  if (snap.tasks_run_on_node.size() != workers_.size()) {
    throw util::ValueError(
        "process cluster restore: snapshot has " +
        std::to_string(snap.tasks_run_on_node.size()) +
        " nodes but the cluster is configured with " +
        std::to_string(workers_.size()));
  }
  for (const Worker& w : workers_) {
    if (w.spawned) {
      throw util::ValueError(
          "process cluster restore: worker pool already started");
    }
  }

  clock_minutes_ = snap.clock_minutes;
  batches_run_ = snap.batches_run;
  // Dead nodes stay dead across a scheduler relaunch (nannies are disabled);
  // surviving slots get fresh worker processes below.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (snap.tasks_run_on_node[i] == static_cast<std::size_t>(-1)) {
      workers_[i].spawned = true;
      workers_[i].alive = false;
    } else {
      workers_[i].tasks_run = snap.tasks_run_on_node[i];
    }
  }

  std::vector<std::size_t> lost;
  if (snap.stream_active) {
    stream_active_ = true;
    session_batch_ = snap.stream_batch;
    node_failures_ = snap.stream_node_failures;
    scheduler_restarts_ = snap.stream_scheduler_restarts;
    session_offset_minutes_ = snap.stream_now;
    stream_now_ = snap.stream_now;
    delivered_ = snap.stream_delivered;
    degraded_warned_ = false;
    for (const InFlightTask& entry : snap.stream_in_flight) {
      if (entry.finish_at < 0.0) {
        // Unresolved at crash time: the evaluation died with the scheduler.
        lost.push_back(entry.id);
        continue;
      }
      Task task;
      task.spec.id = entry.id;
      task.phase = TaskPhase::kResolved;
      task.report = entry.report;
      task.resolved_minutes = entry.finish_at;
      tasks_.emplace(entry.id, std::move(task));
      undelivered_.insert(entry.id);
    }
    std::sort(lost.begin(), lost.end());
  }
  spawn_missing_workers();
  session_started_ = now_seconds();
  obs::events().emit("process.restore",
                     {{"lost", util::Json(lost.size())},
                      {"delivered", util::Json(delivered_.size())},
                      {"resolved", util::Json(undelivered_.size())}});
  return lost;
}

}  // namespace dpho::hpc
