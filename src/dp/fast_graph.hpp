// Analytic fused forward/backward kernels for DeepPot-SE training.
//
// The tape path (DeepPotModel::build_graph + ad::Tape) allocates one heap
// node per scalar multiply, per neighbor, per atom, per frame, per step.
// FastGraph computes the same three quantities with hand-derived kernels
// over contiguous batches and a reusable arena, performing zero per-neighbor
// heap allocations in steady state:
//
//   * energy and forces (F = -dE/dx) -- one batched forward plus one
//     analytic reverse sweep (whole-frame inference through dp::Potential:
//     dp_test, dp_serve, validation RMSE; MD runs dp::MdSession instead);
//   * the full parameter gradient of the DeePMD loss, including the
//     second-order force term dF/dtheta = -d2E/(dx dtheta), via
//     forward-over-reverse: a tangent (dual-number) pass in the coordinate
//     direction v = F_pred - F_ref turns the mixed Hessian-vector product
//     grad_theta(v . grad_x E) into one extra forward + one extra reverse
//     sweep (derivation in DESIGN.md section 10).
//
// Geometry is stored SoA (structure-of-arrays): each per-pair attribute is
// one contiguous net-major array, so every kernel sweep is a streaming read
// of exactly the fields it touches instead of striding over an AoS struct.
//
// Passes fuse multiple frames: K frames of the same atom set run through
// each per-net dense layer as one K-times-taller batch (loss_and_grad_fused),
// which is where the batched SIMD kernels in nn/simd.hpp get their row
// counts from.  The fused gradient uses combined tangent seeding -- the
// energy-term coefficient e_coef rides the output tangent-adjoint seed while
// the force residual rides the coordinate tangent -- so one tangent pass
// accumulates the complete per-frame loss gradient and the reverse pass
// never touches parameters (DESIGN.md section 13).
//
// The tape remains the test oracle: the parity test-suite and
// bench_model_kernels hold FastGraph to agree with it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dp/loss.hpp"
#include "dp/model.hpp"
#include "md/potential.hpp"
#include "nn/mlp_kernels.hpp"

namespace dpho::dp {

/// Geometry-only quantities of one frame's in-cutoff pairs: invariant across
/// training steps for a fixed candidate's r_cut, so the topology cache
/// builds them once per dataset.  Storage is SoA, net-major (grouped by the
/// (center species, neighbor species) embedding net); within a net the order
/// is (center atom, neighbor list order), so every sweep over pairs is
/// deterministic.  Pair p of net e occupies index net_offsets[e] + p of
/// every array.
struct FrameGeometry {
  std::vector<std::uint32_t> center;  // atom i
  std::vector<std::uint32_t> j;       // neighbor atom index
  std::vector<double> r;              // |x_j + shift - x_i|
  std::vector<double> s;              // switching value s(r)
  std::vector<double> ds_dr;          // s'(r)
  std::vector<double> ux, uy, uz;     // unit vector (x_j + shift - x_i)/r
  std::vector<std::uint32_t> net_offsets;  // kNumSpecies^2 + 1 entries
  std::size_t num_atoms = 0;

  std::size_t size() const { return center.size(); }
  std::size_t net_count(std::size_t net) const {
    return net_offsets[net + 1] - net_offsets[net];
  }
  void resize_pairs(std::size_t count) {
    center.resize(count);
    j.resize(count);
    r.resize(count);
    s.resize(count);
    ds_dr.resize(count);
    ux.resize(count);
    uy.resize(count);
    uz.resize(count);
  }
};

/// Builds (into a reusable buffer) the geometry of `frame` under the model's
/// cutoff, applying the same r < rcut filter as the model's graph build.
/// Pairs come straight from an md::NeighborList CSR held per thread and
/// rebuilt in place, so a warmed thread allocates nothing here.
void build_frame_geometry(const DeepPotModel& model, const md::Frame& frame,
                          FrameGeometry& out);

/// One frame of a fused loss-gradient batch: its geometry plus the training
/// labels.  The geometry pointer must outlive the call.
struct FrameTarget {
  const FrameGeometry* geometry = nullptr;
  double energy_ref = 0.0;
  std::span<const md::Vec3> forces_ref;
};

/// The arena all FastGraph passes run in.  Buffers are sized on every use
/// and only ever grow, so one workspace per worker thread makes the whole
/// training step allocation-free in steady state.  A workspace may be reused
/// across models of different shapes and fusion widths (sizes are re-derived
/// per call).
struct FastWorkspace {
  /// Batched input/adjoint rows plus the layer caches for one net group.
  struct NetSlot {
    std::vector<double> x;            // batch inputs
    std::vector<double> x_dot;        // batch input tangents
    std::vector<double> x_bar;        // batch input adjoints
    std::vector<double> x_bar_dot;    // batch input tangent-adjoints
    std::vector<double> out_bar;      // output adjoint seeds
    std::vector<double> out_bar_dot;  // output tangent-adjoint seeds
    nn::MlpBatchCache cache;
  };
  std::vector<NetSlot> embed;  // kNumSpecies^2 slots
  std::vector<NetSlot> fit;    // kNumSpecies slots

  // Per-atom T-matrix blocks ((frames * num_atoms) x m1 x 4), frame-major,
  // and their adjoints/tangents.
  std::vector<double> t, t_bar, t_dot, t_bar_dot;
  std::vector<double> coord_bar;  // 3N per frame: dE/dx (forces = -this)
  std::vector<double> lambda;     // 3N per frame: scaled coordinate tangent
  std::vector<double> u_dot;      // 3 per pair row: tangent of the unit vector
  std::vector<double> energies;   // per-frame energies from the last primal
  std::vector<double> e_coef;     // per-frame energy-term seed coefficients
  // Fused batch bookkeeping (sized per call).
  std::vector<std::size_t> net_counts;      // per net: rows summed over frames
  std::vector<std::size_t> net_row_offset;  // prefix sums of net_counts
  std::vector<const FrameGeometry*> frame_ptrs;
};

class FastGraph {
 public:
  /// Binds to `model` (not owned; must outlive the FastGraph).  Atom/species
  /// grouping and flat parameter offsets are derived once here.
  explicit FastGraph(const DeepPotModel& model);

  /// Tape-free energy + forces.
  md::ForceEnergy energy_forces(const FrameGeometry& geometry,
                                FastWorkspace& workspace) const;

  /// DeePMD per-frame loss and its full analytic parameter gradient
  /// (written into `grad`, sized model.num_params(); overwritten, not
  /// accumulated).  Matches the tape path's
  /// gradient(loss(build_graph(...)), params) to rounding.  Equivalent to a
  /// one-frame loss_and_grad_fused call.
  double loss_and_grad(const FrameGeometry& geometry, double energy_ref,
                       std::span<const md::Vec3> forces_ref,
                       const LossWeights& weights, FastWorkspace& workspace,
                       std::span<double> grad) const;

  /// Fused multi-frame pass: per-net batches stack all frames' rows, so K
  /// frames cost one sweep of K-times-taller dense batches.  Writes each
  /// frame's loss into `losses` (sized frames.size()) and the SUM of the
  /// per-frame gradients into `grad` (overwritten).  The per-frame gradient
  /// contributions accumulate in net-major batch order, which is fixed for a
  /// fixed frame list -- results are independent of thread count but DO
  /// depend on how frames are grouped into fused calls.
  void loss_and_grad_fused(std::span<const FrameTarget> frames,
                           const LossWeights& weights, FastWorkspace& workspace,
                           std::span<double> grad,
                           std::span<double> losses) const;

 private:
  /// Forward + primal reverse over the fused frame list: fills
  /// workspace.energies (per-frame energy) and workspace.coord_bar (dE/dx,
  /// 3N per frame).  `training` additionally caches curvature for the
  /// tangent pass.  The reverse pass never accumulates parameter gradients;
  /// the tangent pass carries the energy term via its seed (see
  /// DESIGN.md section 13).
  void primal_pass(std::span<const FrameGeometry* const> frames,
                   FastWorkspace& workspace, bool training) const;

  /// Tangent (forward-over-reverse) pass along workspace.lambda with output
  /// tangent-adjoint seeds workspace.e_coef[frame]; accumulates (+=) the
  /// combined gradient sum_f (e_coef_f dE_f/dtheta + grad_theta(lambda_f .
  /// grad_x E_f)) into `grad`.  Requires the caches left by a
  /// primal_pass(training = true).
  void tangent_pass(std::span<const FrameGeometry* const> frames,
                    FastWorkspace& workspace, std::span<double> grad) const;

  void size_workspace(std::span<const FrameGeometry* const> frames,
                      FastWorkspace& workspace) const;

  const DeepPotModel* model_;
  std::size_t m1_ = 0;  // embedding output width
  std::size_t m2_ = 0;  // axis neurons
  // Atoms grouped by species for batched fitting-net dispatch.
  std::vector<std::uint32_t> species_atoms_;    // grouped atom indices
  std::vector<std::uint32_t> species_offsets_;  // kNumSpecies + 1
  std::vector<std::uint32_t> atom_slot_;        // atom -> row in its batch
  // Flat parameter offsets (gather_params order: embeddings then fittings).
  std::vector<std::size_t> embed_param_offset_;
  std::vector<std::size_t> fit_param_offset_;
};

}  // namespace dpho::dp
