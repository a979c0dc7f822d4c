#include "dp/potential.hpp"

#include "util/error.hpp"
#include "util/fs.hpp"

namespace dpho::dp {

Potential::Potential(DeepPotModel model)
    : Potential(std::make_shared<const DeepPotModel>(std::move(model))) {}

Potential::Potential(std::shared_ptr<const DeepPotModel> model)
    : model_(model ? std::move(model)
                   : throw util::ValueError("Potential: null model")),
      graph_(*model_) {}

Potential Potential::borrow(const DeepPotModel& model) {
  // Non-owning aliasing handle; the caller guarantees the model's lifetime.
  return Potential(std::shared_ptr<const DeepPotModel>(
      std::shared_ptr<const DeepPotModel>(), &model));
}

Potential Potential::from_checkpoint(const util::Json& checkpoint) {
  return Potential(DeepPotModel::load(checkpoint));
}

Potential Potential::load_file(const std::string& path) {
  return from_checkpoint(util::Json::parse(util::read_file(path)));
}

md::ForceEnergy Potential::evaluate(const md::Frame& frame) const {
  thread_local FrameGeometry geometry;
  build_frame_geometry(*model_, frame, geometry);
  return evaluate(geometry);
}

md::ForceEnergy Potential::evaluate(const FrameGeometry& geometry) const {
  thread_local FastWorkspace workspace;
  return graph_.energy_forces(geometry, workspace);
}

}  // namespace dpho::dp
