#include "dp/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "dp/loss.hpp"
#include "hpc/parallel.hpp"
#include "hpc/thread_pool.hpp"
#include "nn/optimizer.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace dpho::dp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-frame squared errors of a prediction.
struct FrameErrors {
  double energy_sq_per_atom = 0.0;  // (dE/N)^2
  double force_sq = 0.0;            // mean over 3N components of dF^2
};

FrameErrors frame_errors(const Potential& potential, const md::Frame& frame,
                         const FrameGeometry& geometry) {
  // The shared Potential entry point (the exact kernels dp_serve and dp_test
  // run) over the frame's cached geometry.
  const md::ForceEnergy prediction = potential.evaluate(geometry);
  const auto n = static_cast<double>(frame.positions.size());
  FrameErrors errors;
  const double de = (prediction.energy - frame.energy) / n;
  errors.energy_sq_per_atom = de * de;
  double ss = 0.0;
  for (std::size_t a = 0; a < frame.forces.size(); ++a) {
    for (std::size_t k = 0; k < 3; ++k) {
      const double df = prediction.forces[a][k] - frame.forces[a][k];
      ss += df * df;
    }
  }
  errors.force_sq = ss / (3.0 * n);
  return errors;
}

}  // namespace

Trainer::Trainer(const TrainInput& config, const md::FrameDataset& train,
                 const md::FrameDataset& validation, TrainerOptions options)
    : config_(config),
      train_data_(train),
      validation_data_(validation),
      options_(options),
      model_(config, train.types(), train.mean_energy_per_atom(),
             util::hash_combine(config.training.seed, 0xDEE9)),
      fast_graph_(model_),
      potential_(Potential::borrow(model_)) {
  if (train.empty()) throw util::ValueError("trainer: empty training set");
  if (validation.empty()) throw util::ValueError("trainer: empty validation set");
  if (config.training.disp_freq == 0) {
    throw util::ValueError("trainer: disp_freq must be at least 1");
  }
}

Trainer::~Trainer() = default;

hpc::ThreadPool* Trainer::gradient_pool() {
  if (options_.pool != nullptr) return options_.pool;
  if (options_.num_threads <= 1) return nullptr;
  if (!owned_pool_) owned_pool_ = std::make_unique<hpc::ThreadPool>(options_.num_threads);
  return owned_pool_.get();
}

std::pair<double, double> Trainer::validation_rmse() const {
  obs::ScopedTimer timer(obs::metrics(), "trainer.validation_seconds");
  const std::size_t count =
      std::min(options_.max_validation_frames, validation_data_.size());
  // Map frames to errors concurrently; accumulate in frame order so the sums
  // match the serial path bit for bit.
  const std::vector<FrameErrors> errors = hpc::parallel_map<FrameErrors>(
      pool_, count, [&](std::size_t i) {
        return frame_errors(potential_, validation_data_.frame(i),
                            validation_topology_.geometry_at(i));
      });
  double sum_e = 0.0;
  double sum_f = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    sum_e += errors[i].energy_sq_per_atom;
    sum_f += errors[i].force_sq;
  }
  const auto denom = static_cast<double>(count);
  return {std::sqrt(sum_e / denom), std::sqrt(sum_f / denom)};
}

TrainResult Trainer::train() {
  const auto start_time = Clock::now();
  obs::metrics().counter("trainer.trainings_total").add(1);
  // Records on every exit path, including the wall-limit throw below.
  obs::ScopedTimer wall_timer(obs::metrics(), "trainer.train_wall_seconds");
  obs::Histogram& grad_seconds = obs::metrics().histogram(
      "trainer.grad_seconds", obs::BucketLayout::timing_seconds());
  obs::Counter& steps_total = obs::metrics().counter("trainer.steps_total");
  pool_ = gradient_pool();
  // Frames are static for the whole training: build each topology once
  // (in parallel) instead of once per step.
  train_topology_.warm(model_, train_data_, train_data_.size(), pool_);
  validation_topology_.warm(
      model_, validation_data_,
      std::min(options_.max_validation_frames, validation_data_.size()), pool_);

  const std::size_t total_steps = config_.training.numb_steps;
  const nn::ExponentialDecay schedule(config_.scaled_start_lr(),
                                      config_.learning_rate.stop_lr, total_steps,
                                      config_.learning_rate.decay_steps);
  const DeepmdLoss loss(config_.loss, schedule);

  std::vector<double> params = model_.gather_params();
  nn::Adam optimizer(params.size());
  std::vector<double> grad(params.size(), 0.0);
  util::Rng rng(util::hash_combine(config_.training.seed, 0xBA7C));

  TrainResult result;
  const auto record_row = [&](std::size_t step) {
    const auto [e_val, f_val] = validation_rmse();
    // Training metrics from the first training frame (cheap proxy, the same
    // role DeePMD's rmse_*_trn columns play).
    const FrameErrors trn = frame_errors(potential_, train_data_.frame(0),
                                         train_topology_.geometry_at(0));
    result.lcurve.add(LcurveRow{step, e_val, std::sqrt(trn.energy_sq_per_atom), f_val,
                                std::sqrt(trn.force_sq), schedule.lr(step)});
    obs::events().emit("trainer.row",
                       {{"step", static_cast<std::int64_t>(step)},
                        {"rmse_e_val", e_val},
                        {"rmse_f_val", f_val},
                        {"lr", schedule.lr(step)}});
  };

  const std::size_t batch_size = config_.training.batch_size;
  std::vector<std::size_t> batch_frames(batch_size);
  // Frames are fused: the batch is split into fixed groups of fuse_frames
  // consecutive batch slots, each group running one multi-frame kernel pass
  // into its own preallocated gradient buffer.  Grouping is a function of
  // batch index only, so it is thread-count independent.
  const std::size_t fuse =
      std::clamp<std::size_t>(options_.fuse_frames, 1, batch_size);
  const std::size_t num_groups = (batch_size + fuse - 1) / fuse;
  frame_targets_.resize(batch_size);
  frame_losses_.resize(batch_size);
  group_grads_.resize(num_groups);
  for (std::vector<double>& g : group_grads_) g.resize(params.size());
  // Row u holds the RMSEs after u updates: row 0 before the first update,
  // then every disp_freq updates, and the final parameters exactly once.
  record_row(0);
  for (std::size_t step = 0; step < total_steps; ++step) {
    if (options_.wall_limit_seconds &&
        seconds_since(start_time) > *options_.wall_limit_seconds) {
      throw util::TimeoutError("training exceeded wall budget at step " +
                               std::to_string(step));
    }
    const LossWeights weights = loss.weights_at(step);
    // Draw the whole batch's frame indices up front -- the same RNG stream
    // the serial loop consumed per frame -- so gradient workers never touch
    // the RNG and the sampled frames are thread-count independent.
    for (std::size_t b = 0; b < batch_size; ++b) {
      batch_frames[b] = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(train_data_.size()) - 1));
    }

    // Data-parallel forward/backward: one fused multi-frame kernel pass per
    // group, each in its worker thread's arena.  The reduction below walks a
    // fixed order, so the lcurve is bit-identical at any thread count.
    obs::ScopedTimer grad_timer(grad_seconds);
    std::fill(grad.begin(), grad.end(), 0.0);
    double batch_loss = 0.0;
    const double inv_batch = 1.0 / static_cast<double>(batch_size);
    for (std::size_t b = 0; b < batch_size; ++b) {
      const md::Frame& frame = train_data_.frames()[batch_frames[b]];
      frame_targets_[b] = FrameTarget{&train_topology_.geometry_at(batch_frames[b]),
                                      frame.energy, frame.forces};
    }
    const auto run_group = [&](std::size_t g) {
      // Sized on every call and never shared by two work items at once (no
      // kernel calls the pool from inside a work item), so one arena per
      // thread serves every trainer.
      thread_local FastWorkspace workspace;
      const std::size_t begin = g * fuse;
      const std::size_t count = std::min(fuse, batch_size - begin);
      fast_graph_.loss_and_grad_fused(
          std::span<const FrameTarget>(frame_targets_).subspan(begin, count),
          weights, workspace, group_grads_[g],
          std::span<double>(frame_losses_).subspan(begin, count));
    };
    if (pool_ == nullptr || pool_->size() <= 1 || num_groups <= 1) {
      for (std::size_t g = 0; g < num_groups; ++g) run_group(g);
    } else {
      pool_->parallel_for(num_groups, run_group);
    }
    grad_timer.stop();
    for (std::size_t b = 0; b < batch_size; ++b) batch_loss += frame_losses_[b];
    for (std::size_t g = 0; g < num_groups; ++g) {
      for (std::size_t p = 0; p < grad.size(); ++p) {
        grad[p] += group_grads_[g][p] * inv_batch;
      }
    }
    if (!std::isfinite(batch_loss)) {
      throw util::ValueError("training diverged: non-finite loss at step " +
                             std::to_string(step));
    }
    optimizer.step(params, grad, schedule.lr(step));
    model_.scatter_params(params);
    steps_total.add(1);
    result.steps_completed = step + 1;
    if (result.steps_completed % config_.training.disp_freq == 0) {
      record_row(result.steps_completed);
    }
  }
  if (total_steps % config_.training.disp_freq != 0) record_row(total_steps);
  const auto [e_val, f_val] = validation_rmse();
  result.rmse_e_val = e_val;
  result.rmse_f_val = f_val;
  result.wall_seconds = seconds_since(start_time);
  return result;
}

}  // namespace dpho::dp
