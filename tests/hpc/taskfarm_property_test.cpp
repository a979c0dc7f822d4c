// Parameterized scheduling properties of the task farm across the
// (nodes x tasks) grid the experiments exercise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "hpc/taskfarm.hpp"

namespace dpho::hpc {
namespace {

class FarmGrid
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, FarmGrid,
    ::testing::Values(std::pair{1u, 7u}, std::pair{4u, 4u}, std::pair{4u, 10u},
                      std::pair{16u, 100u}, std::pair{100u, 100u},
                      std::pair{100u, 350u}),
    [](const auto& param_info) {
      return "n" + std::to_string(param_info.param.first) + "t" +
             std::to_string(param_info.param.second);
    });

TEST_P(FarmGrid, ConstantDurationMakespanIsWaveCount) {
  const auto [nodes, tasks] = GetParam();
  FarmConfig config;
  config.job.nodes = nodes;
  config.job.wall_limit_minutes = 1e9;
  config.real_threads = 2;
  DaskCluster farm(ClusterSpec::testbed(nodes), config);
  const BatchReport report = farm.run_batch(
      tasks, [](std::size_t) { return WorkResult{{0.0, 0.0}, 60.0, false}; });
  const double waves = std::ceil(static_cast<double>(tasks) / nodes);
  EXPECT_DOUBLE_EQ(report.makespan_minutes, 60.0 * waves);
}

TEST_P(FarmGrid, EveryTaskGetsExactlyOneTerminalStatus) {
  const auto [nodes, tasks] = GetParam();
  FarmConfig config;
  config.job.nodes = nodes;
  config.node_failure_probability = 0.05;
  config.seed = nodes * 1000 + tasks;
  config.real_threads = 2;
  DaskCluster farm(ClusterSpec::testbed(nodes), config);
  const BatchReport report = farm.run_batch(
      tasks, [](std::size_t i) {
        return WorkResult{{0.0, 0.0}, 20.0, i % 11 == 10};
      });
  ASSERT_EQ(report.tasks.size(), tasks);
  for (const TaskReport& task : report.tasks) {
    // Status is one of the four enumerators; fitness only on success.
    if (task.status == TaskStatus::kOk) {
      EXPECT_EQ(task.fitness.size(), 2u);
    } else {
      EXPECT_TRUE(task.fitness.empty());
    }
    EXPECT_GE(task.attempts, 1u);
    EXPECT_LE(task.attempts, 3u);
  }
}

TEST_P(FarmGrid, MakespanNeverBelowLongestTask) {
  const auto [nodes, tasks] = GetParam();
  FarmConfig config;
  config.job.nodes = nodes;
  config.real_threads = 2;
  DaskCluster farm(ClusterSpec::testbed(nodes), config);
  const auto minutes = [](std::size_t i) {
    return 10.0 + static_cast<double>((i * 37) % 50);
  };
  // Computed here, not in the task body: tasks run on pool threads.
  double longest = 0.0;
  for (std::size_t i = 0; i < tasks; ++i) longest = std::max(longest, minutes(i));
  const BatchReport report = farm.run_batch(tasks, [&](std::size_t i) {
    return WorkResult{{0.0, 0.0}, minutes(i), false};
  });
  EXPECT_GE(report.makespan_minutes + 1e-9, longest);
  // And never above the serial sum.
  EXPECT_LE(report.makespan_minutes,
            static_cast<double>(tasks) * 60.0 + 1e-9);
}

TEST_P(FarmGrid, FinishTimesRespectNodeSerialization) {
  // On each node, tasks must not overlap: sum of durations on a node equals
  // that node's last finish time (single batch starting at 0).
  const auto [nodes, tasks] = GetParam();
  FarmConfig config;
  config.job.nodes = nodes;
  config.real_threads = 2;
  DaskCluster farm(ClusterSpec::testbed(nodes), config);
  const BatchReport report = farm.run_batch(
      tasks, [](std::size_t i) {
        return WorkResult{{0.0, 0.0}, 5.0 + static_cast<double>(i % 3), false};
      });
  std::vector<double> node_total(nodes, 0.0);
  std::vector<double> node_last(nodes, 0.0);
  for (const TaskReport& task : report.tasks) {
    node_total[task.node] += task.sim_minutes;
    node_last[task.node] = std::max(node_last[task.node], task.finish_minute);
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    EXPECT_NEAR(node_total[n], node_last[n], 1e-9) << "node " << n;
  }
}

}  // namespace
}  // namespace dpho::hpc
