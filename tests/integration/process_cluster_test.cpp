// Chaos harness for hpc::ProcessCluster: real dpho_worker subprocesses over
// loopback TCP, with the fault plan driving real SIGKILLs, real hangs, and
// real stragglers.  Everything here spawns and kills actual processes --
// these are the tests the simulator cannot give us.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <vector>

#include "core/eval_adapter.hpp"
#include "core/eval_config_io.hpp"
#include "core/evaluator.hpp"
#include "ea/individual.hpp"
#include "hpc/process_cluster.hpp"
#include "hpc/task_mux.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/uuid.hpp"

namespace dpho::hpc {
namespace {

// Decodes cleanly under the paper's 7-gene representation.
const std::vector<double> kBaseGenome = {0.004, 0.001, 3.2, 2.0, 2.3, 4.6, 4.2};

std::vector<TaskSpec> make_specs(std::size_t count) {
  util::Rng rng(41);
  std::vector<TaskSpec> specs(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> genome = kBaseGenome;
    genome[0] += 0.0001 * static_cast<double>(i);  // stays inside the bounds
    const ea::Individual individual = ea::Individual::create(genome, rng);
    specs[i].id = i;
    specs[i].genome = individual.genome;
    specs[i].eval_seed = 9000 + i;
    specs[i].uuid = individual.uuid.str();
  }
  return specs;
}

/// The same evaluation the workers run, executed locally: the parity oracle
/// and the degradation fallback.
RemoteWorkFn local_work(const core::Evaluator& evaluator) {
  return [&evaluator](const TaskSpec& spec) -> WorkResult {
    ea::Individual individual;
    individual.genome = spec.genome;
    individual.uuid = util::Uuid::parse(spec.uuid);
    return core::to_work_result(evaluator.evaluate(individual, spec.eval_seed));
  };
}

class ProcessClusterChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    evaluator_ = core::make_evaluator(core::EvalBackendConfig{});
  }

  ProcessClusterConfig config(std::size_t workers) {
    ProcessClusterConfig config;
    config.worker_binary = DPHO_WORKER_BIN;
    config.num_workers = workers;
    config.eval_config_json =
        core::eval_backend_config_to_json(core::EvalBackendConfig{}).dump();
    config.heartbeat_interval_seconds = 0.02;
    config.heartbeat_timeout_seconds = 0.6;
    return config;
  }

  FarmConfig farm(std::size_t max_attempts = 3) {
    FarmConfig farm;
    farm.job.nodes = 4;
    farm.max_attempts = max_attempts;
    farm.seed = 11;
    return farm;
  }

  /// Fitness each spec must produce, computed in-process.
  std::vector<std::vector<double>> expected_fitness(
      const std::vector<TaskSpec>& specs) {
    std::vector<std::vector<double>> expected;
    const RemoteWorkFn work = local_work(*evaluator_);
    for (const TaskSpec& spec : specs) expected.push_back(work(spec).fitness);
    return expected;
  }

  std::unique_ptr<core::Evaluator> evaluator_;
};

TEST_F(ProcessClusterChaos, BatchMatchesInProcessEvaluationExactly) {
  const std::vector<TaskSpec> specs = make_specs(6);
  const auto expected = expected_fitness(specs);

  ProcessCluster cluster(ClusterSpec::testbed(4), farm(), config(3));
  const BatchReport report =
      cluster.run_batch(specs, local_work(*evaluator_));

  ASSERT_EQ(report.tasks.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.tasks[i].status, TaskStatus::kOk) << i;
    EXPECT_EQ(report.tasks[i].fitness, expected[i]) << i;
    EXPECT_EQ(report.tasks[i].attempts, 1u) << i;
  }
  EXPECT_EQ(cluster.live_workers(), 3u);
  EXPECT_EQ(report.node_failures, 0u);
  EXPECT_GT(cluster.clock_minutes(), 0.0);
}

TEST_F(ProcessClusterChaos, ScriptedKillRedispatchesToASurvivor) {
  // The same FaultPlan JSON shape that scripts the simulator: here the event
  // SIGKILLs the real worker that received task 2's first attempt.
  FarmConfig farm_config = farm();
  FaultEvent kill;
  kill.kind = FaultKind::kKillWorker;
  kill.batch = 0;
  kill.task = 2;
  kill.attempt = 1;
  farm_config.faults.events.push_back(kill);

  const std::vector<TaskSpec> specs = make_specs(6);
  const auto expected = expected_fitness(specs);

  ProcessCluster cluster(ClusterSpec::testbed(4), farm_config, config(3));
  const BatchReport report =
      cluster.run_batch(specs, local_work(*evaluator_));

  // The kill cost one worker and one re-dispatch -- but no fitness.
  EXPECT_EQ(report.node_failures, 1u);
  EXPECT_EQ(report.workers_remaining, 2u);
  EXPECT_EQ(cluster.live_workers(), 2u);
  EXPECT_EQ(report.tasks[2].status, TaskStatus::kOk);
  EXPECT_EQ(report.tasks[2].attempts, 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.tasks[i].fitness, expected[i]) << i;
  }
}

TEST_F(ProcessClusterChaos, HungWorkerTripsTheHeartbeatDeadline) {
  // Every worker hangs (and stops heartbeating) when task 1 reaches it, so
  // both attempts die as kHungProcess, the retry budget runs out, and the
  // survivors -- there are none -- force in-process degradation for the rest.
  ProcessClusterConfig cluster_config = config(2);
  cluster_config.worker_extra_args = {"--hang-on-task", "1"};

  const std::vector<TaskSpec> specs = make_specs(4);
  const auto expected = expected_fitness(specs);

  ProcessCluster hung(ClusterSpec::testbed(4), farm(/*max_attempts=*/2),
                      cluster_config);
  const BatchReport report = hung.run_batch(specs, local_work(*evaluator_));

  EXPECT_EQ(report.tasks[1].status, TaskStatus::kNodeFailure);
  EXPECT_EQ(report.tasks[1].cause, FailureCause::kHungProcess);
  EXPECT_EQ(report.tasks[1].attempts, 2u);
  EXPECT_TRUE(report.tasks[1].fitness.empty());
  EXPECT_EQ(hung.live_workers(), 0u);  // both hung workers were SIGKILLed
  // Everything that did not hang still produced its exact fitness.
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(report.tasks[i].status, TaskStatus::kOk) << i;
    EXPECT_EQ(report.tasks[i].fitness, expected[i]) << i;
  }
}

TEST_F(ProcessClusterChaos, ZeroWorkersDegradeToInProcessEvaluation) {
  // Workers that die instantly (exec /bin/false) leave an empty pool; the
  // scheduler must finish the batch in-process instead of hanging.
  ProcessClusterConfig cluster_config = config(2);
  cluster_config.worker_binary = "/bin/false";
  cluster_config.spawn_timeout_seconds = 2.0;

  const std::vector<TaskSpec> specs = make_specs(3);
  const auto expected = expected_fitness(specs);

  ProcessCluster cluster(ClusterSpec::testbed(4), farm(), cluster_config);
  const BatchReport report =
      cluster.run_batch(specs, local_work(*evaluator_));

  EXPECT_EQ(cluster.live_workers(), 0u);
  ASSERT_EQ(report.tasks.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.tasks[i].status, TaskStatus::kOk) << i;
    EXPECT_EQ(report.tasks[i].fitness, expected[i]) << i;
  }
}

TEST_F(ProcessClusterChaos, ZeroWorkersWithoutFallbackThrows) {
  ProcessClusterConfig cluster_config = config(1);
  cluster_config.worker_binary = "/bin/false";
  cluster_config.spawn_timeout_seconds = 2.0;
  cluster_config.allow_inprocess_fallback = false;

  ProcessCluster cluster(ClusterSpec::testbed(4), farm(), cluster_config);
  EXPECT_THROW(cluster.run_batch(make_specs(2), local_work(*evaluator_)),
               util::ValueError);
}

TEST_F(ProcessClusterChaos, StragglerSleepsOnTheRealWorker) {
  FarmConfig farm_config = farm();
  FaultEvent straggler;
  straggler.kind = FaultKind::kStraggler;
  straggler.batch = 0;
  straggler.task = 0;
  straggler.factor = 2.0;
  farm_config.faults.events.push_back(straggler);

  ProcessClusterConfig cluster_config = config(2);
  cluster_config.straggler_sleep_seconds = 0.15;

  const std::vector<TaskSpec> specs = make_specs(2);
  ProcessCluster cluster(ClusterSpec::testbed(4), farm_config, cluster_config);
  const auto start = std::chrono::steady_clock::now();
  const BatchReport report =
      cluster.run_batch(specs, local_work(*evaluator_));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // factor 2.0 x 0.15 s/unit: the worker really slept ~0.3 s.
  EXPECT_GE(elapsed, 0.25);
  EXPECT_EQ(report.tasks[0].status, TaskStatus::kOk);
  EXPECT_EQ(report.tasks[1].status, TaskStatus::kOk);
}

TEST_F(ProcessClusterChaos, CorruptPayloadIsQuarantinedAtReceipt) {
  FarmConfig farm_config = farm();
  FaultEvent corrupt;
  corrupt.kind = FaultKind::kCorruptPayload;
  corrupt.batch = 0;
  corrupt.task = 1;
  farm_config.faults.events.push_back(corrupt);

  const std::vector<TaskSpec> specs = make_specs(3);
  ProcessCluster cluster(ClusterSpec::testbed(4), farm_config, config(2));
  const BatchReport report =
      cluster.run_batch(specs, local_work(*evaluator_));

  EXPECT_EQ(report.tasks[1].status, TaskStatus::kTrainingError);
  EXPECT_EQ(report.tasks[1].cause, FailureCause::kPayloadCorruption);
  EXPECT_TRUE(report.tasks[1].fitness.empty());
  EXPECT_EQ(report.tasks[0].status, TaskStatus::kOk);
  EXPECT_EQ(report.tasks[2].status, TaskStatus::kOk);
}

TEST_F(ProcessClusterChaos, SchedulerRestartRebindsTheListener) {
  FarmConfig farm_config = farm();
  FaultEvent restart;
  restart.kind = FaultKind::kSchedulerRestart;
  restart.batch = 0;
  restart.delay_minutes = 1.5;
  farm_config.faults.events.push_back(restart);

  const std::vector<TaskSpec> specs = make_specs(3);
  const auto expected = expected_fitness(specs);
  ProcessCluster cluster(ClusterSpec::testbed(4), farm_config, config(2));
  const BatchReport report =
      cluster.run_batch(specs, local_work(*evaluator_));

  EXPECT_EQ(report.scheduler_restarts, 1u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.tasks[i].fitness, expected[i]) << i;
  }
}

TEST_F(ProcessClusterChaos, CrashRecoveryResubmitsOnlyLostTasks) {
  const std::vector<TaskSpec> specs = make_specs(4);
  const auto expected = expected_fitness(specs);

  FarmSnapshot snapshot;
  std::set<std::size_t> delivered_before;
  {
    ProcessCluster cluster(ClusterSpec::testbed(4), farm(), config(2));
    cluster.stream_begin();
    for (const TaskSpec& spec : specs) {
      cluster.stream_submit(spec, local_work(*evaluator_));
    }
    for (int i = 0; i < 2; ++i) {
      const auto done = cluster.stream_next();
      ASSERT_TRUE(done.has_value());
      EXPECT_EQ(done->report.fitness, expected[done->id]);
      delivered_before.insert(done->id);
    }
    snapshot = cluster.snapshot();
    // The scheduler "crashes" here: the destructor takes the workers down
    // with it, exactly like a real scheduler death.
  }

  ProcessCluster revived(ClusterSpec::testbed(4), farm(), config(2));
  const std::vector<std::size_t> lost = revived.restore(snapshot);
  // Whatever was resolved before the crash survives verbatim; only tasks
  // that were still running on a worker come back as lost.
  for (const std::size_t id : lost) {
    EXPECT_EQ(delivered_before.count(id), 0u) << id;
    revived.stream_submit(specs[id], local_work(*evaluator_));
  }

  std::set<std::size_t> delivered_after;
  while (const auto done = revived.stream_next()) {
    EXPECT_EQ(delivered_before.count(done->id), 0u)
        << "task " << done->id << " was re-run after delivery";
    EXPECT_EQ(done->report.fitness, expected[done->id]);
    delivered_after.insert(done->id);
  }
  EXPECT_EQ(delivered_before.size() + delivered_after.size(), specs.size());
  const BatchReport report = revived.stream_end();
  EXPECT_EQ(report.tasks.size(), specs.size());
}

TEST_F(ProcessClusterChaos, TwoMuxTenantsShareOnePoolThroughTheirLifecycles) {
  // The dpho_sched deployment shape: ONE process pool, several MuxSession
  // tenants with overlapping lifetimes.  One tenant retires mid-flight of
  // the other, a third arrives after both are gone -- the pool (and its
  // workers) lives through all of it.
  const std::vector<TaskSpec> all = make_specs(10);
  const std::vector<TaskSpec> specs_a(all.begin(), all.begin() + 6);
  std::vector<TaskSpec> specs_b(all.begin() + 6, all.end());
  for (std::size_t i = 0; i < specs_b.size(); ++i) specs_b[i].id = i;
  const auto expected_a = expected_fitness(specs_a);
  const auto expected_b = expected_fitness(specs_b);

  ProcessCluster cluster(ClusterSpec::testbed(4), farm(), config(3));
  TaskMux mux(cluster);
  MuxSession tenant_a(mux, SlotOptions{});
  MuxSession tenant_b(mux, SlotOptions{.weight = 2, .max_in_flight = 0});
  tenant_a.stream_begin();
  tenant_b.stream_begin();
  for (std::size_t i = 0; i < specs_a.size(); ++i) {
    tenant_a.stream_submit(specs_a[i], local_work(*evaluator_));
    if (i < specs_b.size()) {
      tenant_b.stream_submit(specs_b[i], local_work(*evaluator_));
    }
  }

  // The short tenant drains and retires first; in-order delivery and exact
  // fitness hold even though its tasks interleaved with tenant A's on the
  // same real workers.
  for (std::size_t i = 0; i < specs_b.size(); ++i) {
    const auto done = tenant_b.stream_next();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->id, i);
    EXPECT_EQ(done->report.fitness, expected_b[i]);
  }
  const BatchReport report_b = tenant_b.stream_end();
  ASSERT_EQ(report_b.tasks.size(), specs_b.size());

  // Tenant A is unaffected by its neighbour's retirement.
  for (std::size_t i = 0; i < specs_a.size(); ++i) {
    const auto done = tenant_a.stream_next();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->id, i);
    EXPECT_EQ(done->report.fitness, expected_a[i]);
  }
  const BatchReport report_a = tenant_a.stream_end();
  ASSERT_EQ(report_a.tasks.size(), specs_a.size());
  EXPECT_EQ(cluster.live_workers(), 3u);

  // A late tenant gets a FRESH slot (namespaces are never reused) and the
  // same pool keeps serving.
  MuxSession late(mux, SlotOptions{});
  late.stream_begin();
  late.stream_submit(specs_a[0], local_work(*evaluator_));
  const auto done = late.stream_next();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->report.fitness, expected_a[0]);
  late.stream_end();
  EXPECT_EQ(mux.num_slots(), 3u);
  EXPECT_EQ(cluster.live_workers(), 3u);
}

TEST_F(ProcessClusterChaos, RestoreRejectsMismatchedWorkerCounts) {
  FarmSnapshot snapshot;
  {
    ProcessCluster cluster(ClusterSpec::testbed(4), farm(), config(2));
    cluster.run_batch(make_specs(2), local_work(*evaluator_));
    snapshot = cluster.snapshot();
  }
  ProcessCluster wrong(ClusterSpec::testbed(4), farm(), config(3));
  EXPECT_THROW(wrong.restore(snapshot), util::ValueError);
}

TEST_F(ProcessClusterChaos, RequiresAWorkerBinary) {
  EXPECT_THROW(
      ProcessCluster(ClusterSpec::testbed(4), farm(), ProcessClusterConfig{}),
      util::ValueError);
  // A path that cannot exec would only show up as every worker dying before
  // its handshake -- and a silent fall back to in-process evaluation.
  for (const char* unusable : {"/nonexistent/dpho_worker", "/tmp"}) {
    ProcessClusterConfig cluster_config = config(1);
    cluster_config.worker_binary = unusable;
    EXPECT_THROW(ProcessCluster(ClusterSpec::testbed(4), farm(), cluster_config),
                 util::ValueError)
        << unusable;
  }
}

}  // namespace
}  // namespace dpho::hpc
