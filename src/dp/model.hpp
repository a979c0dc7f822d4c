// DeepPot-SE style neural-network interatomic potential.
//
// Architecture (Zhang et al., "End-to-end symmetry preserving inter-atomic
// potential energy model", the model behind DeePMD-kit's se_e2_a descriptor):
//
//   for every atom i:
//     for every neighbor j within rcut:
//       s_ij = switching(r_ij)                       (smooth, 0 at rcut)
//       R_ij = [s, s x/r, s y/r, s z/r]              (1x4 local frame row)
//       g_ij = Embed_{t_i,t_j}(s_ij)                 (M1-vector, per type pair)
//     T_i  = (1/sel) sum_j g_ij^T R_ij               (M1 x 4)
//     D_i  = T_i T2_i^T, T2 = first M2 rows of T_i   (M1 x M2 descriptor)
//     E_i  = Fit_{t_i}(vec(D_i)) + bias_{t_i}
//   E = sum_i E_i,  F = -dE/dx
//
// The descriptor is invariant to translation, rigid rotation, and permutation
// of like atoms, and smooth as neighbors enter/leave the cutoff sphere; the
// test-suite verifies each of those properties.
#pragma once

#include <cstdint>
#include <vector>

#include "ad/tape.hpp"
#include "dp/config.hpp"
#include "dp/model_spec.hpp"
#include "dp/switching.hpp"
#include "md/dataset.hpp"
#include "md/potential.hpp"
#include "nn/mlp.hpp"

namespace dpho::dp {

/// The trainable potential: architecture, parameters and serialization.
/// Evaluation lives in dp::Potential (whole frames, dp/potential.hpp) and
/// dp::MdSession (MD, dp/md_session.hpp); build_graph below is the tape
/// oracle the test-suite holds both kernels to.
class DeepPotModel {
 public:
  /// `types` fixes the atom ordering the model is trained on;
  /// `energy_bias_per_atom` centres predictions on the dataset mean.
  DeepPotModel(const ModelSpec& spec, std::vector<md::Species> types,
               double energy_bias_per_atom, std::uint64_t seed);

  /// Convenience: takes the architecture slice of a full training input.
  DeepPotModel(const TrainInput& config, std::vector<md::Species> types,
               double energy_bias_per_atom, std::uint64_t seed);

  const ModelSpec& spec() const { return spec_; }
  std::size_t num_atoms() const { return types_.size(); }

  // -- flat parameter space (embedding nets then fitting nets) --
  std::size_t num_params() const { return num_params_; }
  std::vector<double> gather_params() const;
  void scatter_params(std::span<const double> params);

  /// Full differentiable graph for one frame (the scalar-tape oracle):
  /// energy, forces and the bound parameters, so tests and benches can take
  /// gradients of a force-containing loss with respect to parameters.  Const
  /// and free of hidden shared state, so concurrent calls on distinct tapes
  /// are safe.
  struct FrameGraph {
    ad::Var energy;                  // total predicted energy
    std::vector<ad::Var> forces;     // 3*N flattened predicted forces
    std::vector<ad::Var> params;     // bound parameters (gather_params order)
  };
  FrameGraph build_graph(ad::Tape& tape, const md::Frame& frame) const;

  /// Energy + forces through the tape oracle: the differentiation reference
  /// the analytic kernels (dp/fast_graph.hpp, dp/md_session.hpp) are tested
  /// against.
  md::ForceEnergy energy_forces_tape(const md::Frame& frame) const;

  /// Serialization (the dp_train tool writes a model checkpoint).  The
  /// checkpoint stores the architecture as a "spec" block; load() also
  /// accepts the legacy "config" block (a full TrainInput document).
  util::Json save() const;
  static DeepPotModel load(const util::Json& json);

  // -- read-only internals for the analytic fast path (dp/fast_graph.hpp) --
  /// Flat index of the embedding net serving a (center, neighbor) pair.
  static std::size_t pair_index(md::Species center, md::Species neighbor) {
    return static_cast<std::size_t>(center) * md::kNumSpecies +
           static_cast<std::size_t>(neighbor);
  }
  const std::vector<md::Species>& types() const { return types_; }
  const nn::Mlp& embedding_net(std::size_t pair) const { return embeddings_[pair]; }
  const nn::Mlp& fitting_net(std::size_t species) const { return fittings_[species]; }
  const SwitchingFunction& switching() const { return switching_; }
  double sel_norm() const { return sel_norm_; }
  double energy_bias_per_atom() const { return energy_bias_per_atom_; }

 private:
  ModelSpec spec_;
  std::vector<md::Species> types_;
  double energy_bias_per_atom_ = 0.0;
  SwitchingFunction switching_;
  double sel_norm_ = 1.0;  // 1/sel descriptor normalization
  std::vector<nn::Mlp> embeddings_;  // kNumSpecies^2 nets
  std::vector<nn::Mlp> fittings_;    // kNumSpecies nets
  std::size_t num_params_ = 0;
};

}  // namespace dpho::dp
