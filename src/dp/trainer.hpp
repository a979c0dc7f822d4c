// The training loop: the stand-in for `dp train`.
//
// Minimizes the DeePMD loss with Adam under the exponential learning-rate
// decay, recording an lcurve and honouring a wall-clock budget (the paper
// caps every training at two hours; individuals that exceed it are "unfit",
// section 2.2.4).  The trainer is deterministic for a given seed -- and
// bit-identical for a given seed at ANY thread count: the data-parallel path
// evaluates gradient groups concurrently but assigns frames to fused groups
// by batch index alone and reduces the group buffers in fixed order (see
// hpc/parallel.hpp for why that matters for floats).  Results DO depend on
// TrainerOptions::fuse_frames (it changes summation grouping), which is why
// it is an explicit option rather than derived from the worker count.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dp/config.hpp"
#include "dp/fast_graph.hpp"
#include "dp/lcurve.hpp"
#include "dp/model.hpp"
#include "dp/potential.hpp"
#include "dp/topology_cache.hpp"
#include "md/dataset.hpp"

namespace dpho::hpc {
class ThreadPool;
}

namespace dpho::dp {

/// Outcome of a completed training run.
struct TrainResult {
  double rmse_e_val = 0.0;  // final per-atom energy RMSE on validation, eV/atom
  double rmse_f_val = 0.0;  // final force-component RMSE on validation, eV/A
  std::size_t steps_completed = 0;
  double wall_seconds = 0.0;
  LcurveWriter lcurve;
};

/// Options beyond the input.json config.
struct TrainerOptions {
  /// Hard wall-clock budget in seconds; exceeded -> util::TimeoutError,
  /// matching the subprocess TimeoutError in the paper's workflow.
  std::optional<double> wall_limit_seconds;
  /// How many validation frames to score per lcurve row (cost control).
  std::size_t max_validation_frames = 8;
  /// Data-parallel gradient workers.  0 (or 1) = serial, preserving the
  /// single-threaded behaviour; N > 1 = frames in a batch get their
  /// forward/backward evaluated concurrently on an owned N-thread pool.
  std::size_t num_threads = 0;
  /// Injected shared pool; overrides num_threads when set (not owned; must
  /// outlive the trainer).  Lets co-located trainings -- e.g. the in-process
  /// evaluator under the task farm -- share one pool instead of
  /// oversubscribing cores.
  hpc::ThreadPool* pool = nullptr;
  /// How many frames each fused analytic gradient call stacks into one
  /// batched kernel pass (clamped to the batch size; minimum 1).  The batch
  /// is split into ceil(batch / fuse_frames) fixed groups by batch index, so
  /// the lcurve depends on this value but NOT on the thread count.
  std::size_t fuse_frames = 4;
};

class Trainer {
 public:
  Trainer(const TrainInput& config, const md::FrameDataset& train,
          const md::FrameDataset& validation, TrainerOptions options = {});
  ~Trainer();

  /// Runs the full step budget; throws util::TimeoutError when the wall
  /// budget is exhausted and util::ValueError when the loss diverges to
  /// non-finite values (a "failed training" in the paper's terms).
  TrainResult train();

  /// The model being trained (valid after construction; trained after train()).
  const DeepPotModel& model() const { return model_; }

 private:
  /// Validation RMSEs over (at most) max_validation_frames frames.
  std::pair<double, double> validation_rmse() const;

  /// The pool gradient work runs on: injected > owned (num_threads > 1) >
  /// nullptr (serial).  Lazily creates the owned pool on first use.
  hpc::ThreadPool* gradient_pool();

  TrainInput config_;
  const md::FrameDataset& train_data_;
  const md::FrameDataset& validation_data_;
  TrainerOptions options_;
  DeepPotModel model_;
  std::unique_ptr<hpc::ThreadPool> owned_pool_;
  hpc::ThreadPool* pool_ = nullptr;  // resolved by gradient_pool()
  TopologyCache train_topology_;
  TopologyCache validation_topology_;
  FastGraph fast_graph_;  // bound to model_; the analytic gradient engine
  // Borrowed view of model_: validation predictions go through the same
  // dp::Potential entry point dp_test and dp_serve use (parameter updates
  // through model_ are visible because the kernels read parameters per call).
  Potential potential_;
  // Preallocated per-step buffers for the fused gradient path (sized once in
  // train(), reused every step -- no per-step gradient allocations).
  std::vector<FrameTarget> frame_targets_;    // batch_size entries
  std::vector<double> frame_losses_;          // batch_size entries
  std::vector<std::vector<double>> group_grads_;  // num_groups x num_params
};

}  // namespace dpho::dp
