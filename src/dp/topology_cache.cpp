#include "dp/topology_cache.hpp"

#include <algorithm>
#include <string>

#include "hpc/thread_pool.hpp"
#include "util/error.hpp"

namespace dpho::dp {

void TopologyCache::warm(const DeepPotModel& model, const md::FrameDataset& data,
                         std::size_t count, hpc::ThreadPool* pool) {
  const std::size_t target = std::min(count, data.size());
  const std::size_t start = geometries_.size();
  if (target <= start) return;
  geometries_.resize(target);
  const auto build = [&](std::size_t offset) {
    const std::size_t i = start + offset;
    build_frame_geometry(model, data.frame(i), geometries_[i]);
  };
  if (pool != nullptr && pool->size() > 1 && target - start > 1) {
    pool->parallel_for(target - start, build);
  } else {
    for (std::size_t offset = 0; offset < target - start; ++offset) build(offset);
  }
}

const FrameGeometry& TopologyCache::geometry_at(std::size_t frame_index) const {
  if (frame_index >= geometries_.size()) {
    throw util::ValueError("topology cache: frame " + std::to_string(frame_index) +
                           " not warmed (cache holds " +
                           std::to_string(geometries_.size()) + ")");
  }
  return geometries_[frame_index];
}

}  // namespace dpho::dp
