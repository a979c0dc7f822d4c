#include "dp/trainer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "hpc/thread_pool.hpp"
#include "md/simulation.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

/// Shared tiny dataset so the expensive MD runs only once per suite.
class TrainerSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);  // 10 atoms
    sim.num_frames = 16;
    sim.equilibration_steps = 200;
    sim.sample_interval = 3;
    sim.seed = 99;
    data_ = new md::LabelledData(md::generate_reference_data(sim, 0.25));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static TrainInput tiny_config(std::size_t steps = 30) {
    TrainInput config;
    config.descriptor.rcut = 3.5;
    config.descriptor.rcut_smth = 2.0;
    config.descriptor.neuron = {4, 8};
    config.descriptor.axis_neuron = 3;
    config.descriptor.sel = 24;
    config.fitting.neuron = {12};
    config.learning_rate.start_lr = 0.01;
    config.learning_rate.stop_lr = 0.003;
    config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
    config.training.numb_steps = steps;
    config.training.disp_freq = 10;
    config.training.seed = 3;
    return config;
  }

  static md::LabelledData* data_;
};

md::LabelledData* TrainerSuite::data_ = nullptr;

TEST_F(TrainerSuite, RunsToCompletionAndRecordsLcurve) {
  Trainer trainer(tiny_config(30), data_->train, data_->validation);
  const TrainResult result = trainer.train();
  EXPECT_EQ(result.steps_completed, 30u);
  EXPECT_GT(result.rmse_e_val, 0.0);
  EXPECT_GT(result.rmse_f_val, 0.0);
  // Rows at steps 0,10,20 plus the final row at 30.
  EXPECT_EQ(result.lcurve.rows().size(), 4u);
  EXPECT_EQ(result.lcurve.rows().back().step, 30u);
}

TEST_F(TrainerSuite, LcurveLearningRateFollowsSchedule) {
  Trainer trainer(tiny_config(30), data_->train, data_->validation);
  const TrainResult result = trainer.train();
  const auto& rows = result.lcurve.rows();
  EXPECT_NEAR(rows.front().lr, 0.01, 1e-12);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i].lr, rows[i - 1].lr + 1e-15);
  }
}

TEST_F(TrainerSuite, TrainingReducesForceError) {
  TrainInput config = tiny_config(250);
  Trainer trainer(config, data_->train, data_->validation);
  const TrainResult result = trainer.train();
  const auto& rows = result.lcurve.rows();
  ASSERT_GE(rows.size(), 2u);
  // Force validation error must drop substantially from its initial value
  // (the force prefactor dominates the loss early on).
  EXPECT_LT(rows.back().rmse_f_val, 0.85 * rows.front().rmse_f_val);
}

TEST_F(TrainerSuite, DeterministicForSeed) {
  Trainer a(tiny_config(20), data_->train, data_->validation);
  Trainer b(tiny_config(20), data_->train, data_->validation);
  const TrainResult ra = a.train();
  const TrainResult rb = b.train();
  EXPECT_DOUBLE_EQ(ra.rmse_e_val, rb.rmse_e_val);
  EXPECT_DOUBLE_EQ(ra.rmse_f_val, rb.rmse_f_val);
}

TEST_F(TrainerSuite, SeedChangesOutcome) {
  TrainInput config_a = tiny_config(20);
  TrainInput config_b = tiny_config(20);
  config_b.training.seed = 4;
  Trainer a(config_a, data_->train, data_->validation);
  Trainer b(config_b, data_->train, data_->validation);
  EXPECT_NE(a.train().rmse_f_val, b.train().rmse_f_val);
}

TEST_F(TrainerSuite, WallLimitRaisesTimeoutError) {
  TrainerOptions options;
  options.wall_limit_seconds = 0.0;  // expire immediately
  Trainer trainer(tiny_config(1000), data_->train, data_->validation, options);
  EXPECT_THROW(trainer.train(), util::TimeoutError);
}

TEST_F(TrainerSuite, LcurveRowsCountUpdatesAndNeverRepeatParameters) {
  // Row u holds the parameters after u updates: row 0 is the initial model,
  // and with disp_freq 1 every row reflects a different parameter set.
  TrainInput config = tiny_config(3);
  config.training.disp_freq = 1;
  Trainer trainer(config, data_->train, data_->validation);
  const TrainResult result = trainer.train();
  const auto& rows = result.lcurve.rows();
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i].step, i);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_NE(rows[i].rmse_f_val, rows[i - 1].rmse_f_val) << i;
  }
  // The last row is the final parameters, the ones the result reports.
  EXPECT_EQ(rows.back().rmse_e_val, result.rmse_e_val);
  EXPECT_EQ(rows.back().rmse_f_val, result.rmse_f_val);
  // Row 0 is the untrained model, whatever the step count.
  TrainInput longer = tiny_config(5);
  longer.training.disp_freq = 1;
  Trainer other(longer, data_->train, data_->validation);
  EXPECT_EQ(other.train().lcurve.rows().front().rmse_f_val, rows.front().rmse_f_val);
}

TEST_F(TrainerSuite, ZeroDispFreqRejected) {
  TrainInput config = tiny_config(10);
  config.training.disp_freq = 0;
  EXPECT_THROW(Trainer(config, data_->train, data_->validation), util::ValueError);
}

TEST_F(TrainerSuite, EmptyDatasetsRejected) {
  md::FrameDataset empty(data_->train.types());
  EXPECT_THROW(Trainer(tiny_config(10), empty, data_->validation), util::ValueError);
  EXPECT_THROW(Trainer(tiny_config(10), data_->train, empty), util::ValueError);
}

TEST_F(TrainerSuite, HugeLearningRateFailsToLearn) {
  // An absurd learning rate either diverges to a non-finite loss (raising
  // the "failed training" error of the paper's workflow) or thrashes without
  // improving; both count as a failed configuration.
  TrainInput config = tiny_config(120);
  config.learning_rate.start_lr = 50.0;
  config.learning_rate.stop_lr = 10.0;
  Trainer trainer(config, data_->train, data_->validation);
  try {
    const TrainResult result = trainer.train();
    const auto& rows = result.lcurve.rows();
    EXPECT_GT(rows.back().rmse_f_val, 0.5 * rows.front().rmse_f_val);
  } catch (const util::Error&) {
    SUCCEED();  // diverged, as the real DeePMD would
  }
}

void expect_bit_identical_lcurves(const TrainResult& a, const TrainResult& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(a.lcurve.rows().size(), b.lcurve.rows().size());
  for (std::size_t i = 0; i < a.lcurve.rows().size(); ++i) {
    const LcurveRow& ra = a.lcurve.rows()[i];
    const LcurveRow& rb = b.lcurve.rows()[i];
    EXPECT_EQ(ra.step, rb.step);
    EXPECT_EQ(bits(ra.rmse_e_val), bits(rb.rmse_e_val)) << "row " << i;
    EXPECT_EQ(bits(ra.rmse_e_trn), bits(rb.rmse_e_trn)) << "row " << i;
    EXPECT_EQ(bits(ra.rmse_f_val), bits(rb.rmse_f_val)) << "row " << i;
    EXPECT_EQ(bits(ra.rmse_f_trn), bits(rb.rmse_f_trn)) << "row " << i;
    EXPECT_EQ(bits(ra.lr), bits(rb.lr)) << "row " << i;
  }
  EXPECT_EQ(bits(a.rmse_e_val), bits(b.rmse_e_val));
  EXPECT_EQ(bits(a.rmse_f_val), bits(b.rmse_f_val));
}

TEST_F(TrainerSuite, ParallelLcurveBitIdenticalToSerial) {
  // The determinism contract of the data-parallel hot path: for a given seed
  // the lcurve is bit-identical at ANY thread count (fixed-order reduction).
  TrainInput config = tiny_config(20);
  config.training.batch_size = 4;
  Trainer serial(config, data_->train, data_->validation);
  const TrainResult serial_result = serial.train();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    TrainerOptions options;
    options.num_threads = threads;
    Trainer threaded(config, data_->train, data_->validation, options);
    const TrainResult threaded_result = threaded.train();
    expect_bit_identical_lcurves(serial_result, threaded_result);
    EXPECT_EQ(threaded_result.steps_completed, serial_result.steps_completed);
  }
}

TEST_F(TrainerSuite, InjectedPoolMatchesOwnedPool) {
  TrainInput config = tiny_config(12);
  config.training.batch_size = 3;
  TrainerOptions owned;
  owned.num_threads = 3;
  Trainer a(config, data_->train, data_->validation, owned);
  const TrainResult result_owned = a.train();

  hpc::ThreadPool shared(3);
  TrainerOptions injected;
  injected.pool = &shared;
  Trainer b(config, data_->train, data_->validation, injected);
  const TrainResult result_injected = b.train();
  expect_bit_identical_lcurves(result_owned, result_injected);
}

TEST_F(TrainerSuite, WorkerScalingAffectsEffectiveLr) {
  TrainInput linear = tiny_config(10);
  linear.learning_rate.scale_by_worker = nn::LrScaling::kLinear;
  linear.num_workers = 6;
  Trainer trainer(linear, data_->train, data_->validation);
  const TrainResult result = trainer.train();
  EXPECT_NEAR(result.lcurve.rows().front().lr, 0.01 * 6.0, 1e-12);
}

}  // namespace
}  // namespace dpho::dp
