// Per-frame geometry cache for static datasets.
//
// Frames never move during training, so the trainer builds each frame's
// FrameGeometry -- the neighbor pairs within the cutoff and their
// step-invariant s(r), s'(r) and unit vectors -- exactly once per dataset,
// optionally in parallel on a ThreadPool.  After warm() lookups are
// lock-free const reads, safe from the trainer's concurrent gradient
// workers, and training steps and validation rows start straight at the
// embedding-net batches.
#pragma once

#include <cstddef>
#include <vector>

#include "dp/fast_graph.hpp"
#include "dp/model.hpp"
#include "md/dataset.hpp"

namespace dpho::hpc {
class ThreadPool;
}

namespace dpho::dp {

class TopologyCache {
 public:
  /// Builds geometries for frames [0, count) of `data` with the model's
  /// cutoff (count is clamped to the dataset size).  Re-warming with the same
  /// arguments is a no-op; a larger count extends the cache.
  void warm(const DeepPotModel& model, const md::FrameDataset& data,
            std::size_t count, hpc::ThreadPool* pool = nullptr);

  std::size_t size() const { return geometries_.size(); }
  bool empty() const { return geometries_.empty(); }

  /// The cached analytic-kernel geometry of frame `frame_index`; throws
  /// util::ValueError when the frame was not covered by warm().
  const FrameGeometry& geometry_at(std::size_t frame_index) const;

 private:
  std::vector<FrameGeometry> geometries_;
};

}  // namespace dpho::dp
