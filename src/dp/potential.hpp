// The one whole-frame evaluation entry point for a trained DeepPot-SE
// potential.
//
// Every consumer of energies and forces for independent frames -- dp_test,
// dp_serve, the trainer's validation pass -- calls Potential::evaluate: load
// a model (from a checkpoint document, a file, or an HPO run archive via
// dp::ModelArchive) and evaluate it through the analytic primal path
// (dp::FastGraph forward + reverse, no tape, no gradient buffers).  MD, where
// step t+1's neighborhood is step t's plus a skin, runs the persistent
// dp::MdSession from make_md_session() instead.
//
// The neighbor list, geometry and kernel workspace are function-local
// thread_local arenas that every call re-sizes, so concurrent callers never
// contend and a thread's steady state allocates only the returned
// ForceEnergy -- also through a freshly constructed Potential.
//
// Ownership: a Potential normally owns its model (shared, so copies of the
// Potential are cheap and a serving cache can hand out references safely).
// Potential::borrow wraps a model owned elsewhere -- the trainer borrows the
// model it is mutating for its validation pass; parameter updates through the
// model are visible to the borrowed Potential because FastGraph reads the
// parameters on every call.
#pragma once

#include <memory>
#include <string>

#include "dp/fast_graph.hpp"
#include "dp/model.hpp"
#include "md/dataset.hpp"
#include "md/potential.hpp"

namespace dpho::md {
struct SessionOptions;
}  // namespace dpho::md

namespace dpho::dp {

class MdSession;

class Potential {
 public:
  /// Takes ownership of `model`.
  explicit Potential(DeepPotModel model);
  explicit Potential(std::shared_ptr<const DeepPotModel> model);

  /// Wraps a model owned elsewhere; `model` must outlive the Potential.
  static Potential borrow(const DeepPotModel& model);

  /// A model.json checkpoint document (DeepPotModel::save shape).
  static Potential from_checkpoint(const util::Json& checkpoint);
  static Potential load_file(const std::string& path);

  const DeepPotModel& model() const { return *model_; }
  const ModelSpec& spec() const { return model_->spec(); }
  std::size_t num_atoms() const { return model_->num_atoms(); }

  /// Analytic energy + forces for one frame (neighbor list and geometry
  /// built here).
  md::ForceEnergy evaluate(const md::Frame& frame) const;

  /// As above from a prebuilt geometry of this model (the trainer's
  /// validation pass reuses its per-dataset TopologyCache).
  md::ForceEnergy evaluate(const FrameGeometry& geometry) const;

  /// Persistent MD evaluation session sharing this model (dp/md_session.hpp):
  /// Verlet-skin topology reuse, preallocated kernel workspace, optional
  /// chunk-parallel force evaluation.  The session shares ownership of the
  /// model, so it may outlive this Potential.  Defined in md_session.cpp.
  std::unique_ptr<MdSession> make_md_session() const;
  std::unique_ptr<MdSession> make_md_session(
      const md::SessionOptions& options) const;

 private:
  std::shared_ptr<const DeepPotModel> model_;
  FastGraph graph_;
};

}  // namespace dpho::dp
