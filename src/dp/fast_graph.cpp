#include "dp/fast_graph.hpp"

#include <algorithm>
#include <array>

#include "md/box.hpp"
#include "md/neighbor.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dpho::dp {

namespace {

constexpr std::size_t kNets = md::kNumSpecies * md::kNumSpecies;

// Metric handles are stable for the registry's lifetime, so resolve them once
// instead of taking the registration mutex every frame.
obs::Histogram& primal_seconds() {
  static obs::Histogram& h = obs::metrics().histogram(
      "dp.kernels.primal_seconds", obs::BucketLayout::timing_seconds());
  return h;
}

obs::Histogram& tangent_seconds() {
  static obs::Histogram& h = obs::metrics().histogram(
      "dp.kernels.tangent_seconds", obs::BucketLayout::timing_seconds());
  return h;
}

obs::Counter& frames_counter() {
  static obs::Counter& c = obs::metrics().counter("dp.kernels.frames_total");
  return c;
}

obs::Counter& pairs_counter() {
  static obs::Counter& c = obs::metrics().counter("dp.kernels.pairs_total");
  return c;
}

}  // namespace

void build_frame_geometry(const DeepPotModel& model, const md::Frame& frame,
                          FrameGeometry& out) {
  const std::vector<md::Species>& types = model.types();
  const std::size_t n = types.size();
  if (frame.positions.size() != n) {
    throw util::ValueError("fast_graph: frame atom count does not match model");
  }
  const double rcut = model.spec().descriptor.rcut;
  // Rebuilt in place on every call, so a thread's steady state allocates
  // nothing here.
  thread_local md::NeighborList list;
  list.build(md::Box(frame.box_length), frame.positions, rcut);
  out.num_atoms = n;

  // Each pair's displacement is re-derived as (x_j + shift) - x_i from the
  // image shift, not taken from the list: the tape oracle differentiates
  // exactly this expression, and the rounding of the round trip is part of
  // every recorded lcurve.
  const auto displacement = [&](std::size_t i, const md::Neighbor& nb) {
    const md::Vec3& xi = frame.positions[i];
    const md::Vec3& xj = frame.positions[nb.index];
    const md::Vec3 shift = nb.displacement - (xj - xi);
    return (xj + shift) - xi;
  };

  // Count pairs per embedding net, prefix-sum into offsets, then fill.  The
  // distance filter must match build_graph exactly (strict r < rcut).
  out.net_offsets.assign(kNets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const md::Neighbor& nb : list.neighbors_of(i)) {
      if (md::norm(displacement(i, nb)) >= rcut) continue;
      ++out.net_offsets[DeepPotModel::pair_index(types[i], types[nb.index]) + 1];
    }
  }
  for (std::size_t net = 0; net < kNets; ++net) {
    out.net_offsets[net + 1] += out.net_offsets[net];
  }
  out.resize_pairs(out.net_offsets.back());

  const SwitchingFunction& switching = model.switching();
  std::array<std::uint32_t, kNets> cursor;
  std::copy_n(out.net_offsets.begin(), kNets, cursor.begin());
  for (std::size_t i = 0; i < n; ++i) {
    for (const md::Neighbor& nb : list.neighbors_of(i)) {
      const md::Vec3 d = displacement(i, nb);
      const double r = md::norm(d);
      if (r >= rcut) continue;
      const std::size_t net = DeepPotModel::pair_index(types[i], types[nb.index]);
      const std::uint32_t p = cursor[net]++;
      out.center[p] = static_cast<std::uint32_t>(i);
      out.j[p] = static_cast<std::uint32_t>(nb.index);
      out.r[p] = r;
      out.s[p] = switching.value(r);
      out.ds_dr[p] = switching.derivative(r);
      out.ux[p] = d[0] / r;
      out.uy[p] = d[1] / r;
      out.uz[p] = d[2] / r;
    }
  }
}

FastGraph::FastGraph(const DeepPotModel& model) : model_(&model) {
  m1_ = model.spec().m1();
  m2_ = model.spec().m2();

  // Group atoms by species so each fitting net sees one contiguous batch;
  // atom_slot_ maps an atom to its row inside that batch.
  const std::vector<md::Species>& types = model.types();
  const std::size_t n = types.size();
  species_offsets_.assign(md::kNumSpecies + 1, 0);
  for (md::Species t : types) ++species_offsets_[static_cast<std::size_t>(t) + 1];
  for (std::size_t s = 0; s < md::kNumSpecies; ++s) {
    species_offsets_[s + 1] += species_offsets_[s];
  }
  species_atoms_.resize(n);
  atom_slot_.resize(n);
  std::array<std::uint32_t, md::kNumSpecies> cursor;
  std::copy_n(species_offsets_.begin(), md::kNumSpecies, cursor.begin());
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(types[i]);
    const std::uint32_t pos = cursor[s]++;
    species_atoms_[pos] = static_cast<std::uint32_t>(i);
    atom_slot_[i] = pos - species_offsets_[s];
  }

  // Flat parameter offsets in gather_params order: embeddings then fittings.
  embed_param_offset_.resize(kNets);
  std::size_t offset = 0;
  for (std::size_t e = 0; e < kNets; ++e) {
    embed_param_offset_[e] = offset;
    offset += model.embedding_net(e).num_params();
  }
  fit_param_offset_.resize(md::kNumSpecies);
  for (std::size_t f = 0; f < md::kNumSpecies; ++f) {
    fit_param_offset_[f] = offset;
    offset += model.fitting_net(f).num_params();
  }
}

void FastGraph::size_workspace(std::span<const FrameGeometry* const> frames,
                               FastWorkspace& workspace) const {
  for (const FrameGeometry* geometry : frames) {
    if (geometry == nullptr || geometry->num_atoms != model_->num_atoms()) {
      throw util::ValueError("fast_graph: geometry atom count does not match model");
    }
  }
  workspace.embed.resize(kNets);
  workspace.fit.resize(md::kNumSpecies);
  // Fused per-net row totals and their prefix sums (row space shared by all
  // pair-indexed scratch like u_dot).
  workspace.net_counts.assign(kNets, 0);
  for (const FrameGeometry* geometry : frames) {
    for (std::size_t net = 0; net < kNets; ++net) {
      workspace.net_counts[net] += geometry->net_count(net);
    }
  }
  workspace.net_row_offset.assign(kNets + 1, 0);
  for (std::size_t net = 0; net < kNets; ++net) {
    workspace.net_row_offset[net + 1] =
        workspace.net_row_offset[net] + workspace.net_counts[net];
  }
}

void FastGraph::primal_pass(std::span<const FrameGeometry* const> frames,
                            FastWorkspace& workspace, bool training) const {
  obs::ScopedTimer timer(primal_seconds());
  const std::size_t num_frames = frames.size();
  frames_counter().add(static_cast<std::int64_t>(num_frames));

  const DeepPotModel& model = *model_;
  const std::vector<md::Species>& types = model.types();
  const std::size_t n = model.num_atoms();
  const double nu = model.sel_norm();
  const std::size_t dwidth = m1_ * m2_;
  const nn::Curvature curvature =
      training ? nn::Curvature::kCache : nn::Curvature::kNone;
  size_workspace(frames, workspace);
  pairs_counter().add(
      static_cast<std::int64_t>(workspace.net_row_offset.back()));

  // Embedding forward: one batch per (center, neighbor) species-pair net,
  // rows stacked frame-major within the net so K fused frames run each dense
  // layer as one K-times-taller batch.
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t total = workspace.net_counts[net];
    if (total == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    slot.x.resize(total);
    std::size_t row = 0;
    for (const FrameGeometry* geometry : frames) {
      const std::uint32_t begin = geometry->net_offsets[net];
      const std::uint32_t end = geometry->net_offsets[net + 1];
      for (std::uint32_t p = begin; p < end; ++p) slot.x[row++] = geometry->s[p];
    }
    nn::mlp_forward_batch(model.embedding_net(net), slot.x, total, slot.cache,
                          curvature);
  }

  // Descriptor contraction: T_i[m][c] = nu * sum_j g_j[m] R_j[c], with atom
  // blocks laid out frame-major ((f * n + i) * m1 * 4).
  workspace.t.assign(num_frames * n * m1_ * 4, 0.0);
  for (std::size_t net = 0; net < kNets; ++net) {
    if (workspace.net_counts[net] == 0) continue;
    const std::span<const double> g_all = workspace.embed[net].cache.out();
    std::size_t row = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      double* t_frame = workspace.t.data() + f * n * m1_ * 4;
      for (std::uint32_t p = begin; p < end; ++p, ++row) {
        const double s = geometry.s[p];
        const double row4[4] = {s, s * geometry.ux[p], s * geometry.uy[p],
                                s * geometry.uz[p]};
        const double* g = g_all.data() + row * m1_;
        double* tblock = t_frame + geometry.center[p] * m1_ * 4;
        for (std::size_t m = 0; m < m1_; ++m) {
          const double gm = nu * g[m];
          for (std::size_t c = 0; c < 4; ++c) tblock[m * 4 + c] += gm * row4[c];
        }
      }
    }
  }

  // D_i[a][b] = sum_c T[a][c] T[b][c], written straight into the fitting
  // batch rows (atoms grouped by species; frames stack as row blocks).
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
    workspace.fit[sp].x.resize(num_frames * atoms * dwidth);
  }
  for (std::size_t f = 0; f < num_frames; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
      double* dst = workspace.fit[sp].x.data() +
                    (f * atoms + atom_slot_[i]) * dwidth;
      const double* tblock = workspace.t.data() + (f * n + i) * m1_ * 4;
      for (std::size_t a = 0; a < m1_; ++a) {
        for (std::size_t b = 0; b < m2_; ++b) {
          double sum = 0.0;
          for (std::size_t c = 0; c < 4; ++c) sum += tblock[a * 4 + c] * tblock[b * 4 + c];
          dst[a * m2_ + b] = sum;
        }
      }
    }
  }

  // Fitting forward; per-frame atomic energies accumulate in atom order
  // (matching the tape's summation order).
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
    if (atoms == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.fit[sp];
    nn::mlp_forward_batch(model.fitting_net(sp), slot.x, num_frames * atoms,
                          slot.cache, curvature);
  }
  workspace.energies.resize(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f) {
    double energy = static_cast<double>(n) * model.energy_bias_per_atom();
    for (std::size_t i = 0; i < n; ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
      energy += workspace.fit[sp].cache.out()[f * atoms + atom_slot_[i]];
    }
    workspace.energies[f] = energy;
  }

  // Fitting reverse, seeded with dE/d(atomic energy) = 1; leaves the
  // descriptor adjoints in fit[sp].x_bar.  No parameter accumulation here:
  // in training the tangent pass carries the energy term via its seeds.
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
    if (atoms == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.fit[sp];
    const std::size_t rows = num_frames * atoms;
    slot.out_bar.assign(rows, 1.0);
    slot.x_bar.resize(rows * dwidth);
    nn::mlp_backward_batch(model.fitting_net(sp), slot.x, rows, slot.cache,
                           slot.out_bar, slot.x_bar, {});
  }

  // Descriptor reverse: Tbar[p][c] = sum_b Dbar[p][b] T[b][c]
  //                               + [p < m2] sum_a Dbar[a][p] T[a][c].
  workspace.t_bar.resize(num_frames * n * m1_ * 4);
  for (std::size_t f = 0; f < num_frames; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
      const double* dbar = workspace.fit[sp].x_bar.data() +
                           (f * atoms + atom_slot_[i]) * dwidth;
      const double* tblock = workspace.t.data() + (f * n + i) * m1_ * 4;
      double* tbar = workspace.t_bar.data() + (f * n + i) * m1_ * 4;
      for (std::size_t p = 0; p < m1_; ++p) {
        for (std::size_t c = 0; c < 4; ++c) {
          double acc = 0.0;
          for (std::size_t b = 0; b < m2_; ++b) acc += dbar[p * m2_ + b] * tblock[b * 4 + c];
          if (p < m2_) {
            for (std::size_t a = 0; a < m1_; ++a) acc += dbar[a * m2_ + p] * tblock[a * 4 + c];
          }
          tbar[p * 4 + c] = acc;
        }
      }
    }
  }

  // Embedding reverse plus force assembly.  Per pair:
  //   gbar[m] = nu * sum_c Tbar[m][c] R[c]       (seeds the net's backward)
  //   Rbar[c] = nu * sum_m Tbar[m][c] g[m]
  //   sbar    = sbar_embed + Rbar[0] + sum_k Rbar[k+1] u[k]
  //   ubar_k  = s Rbar[k+1]
  //   dbar    = (ubar - (ubar.u) u)/r + sbar s'(r) u
  // with dbar flowing +into atom j and -into the center atom.
  workspace.coord_bar.assign(num_frames * 3 * n, 0.0);
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t total = workspace.net_counts[net];
    if (total == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    const std::span<const double> g_all = slot.cache.out();
    slot.out_bar.resize(total * m1_);
    std::size_t row = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      const double* tbar_frame = workspace.t_bar.data() + f * n * m1_ * 4;
      for (std::uint32_t p = begin; p < end; ++p, ++row) {
        const double s = geometry.s[p];
        const double row4[4] = {s, s * geometry.ux[p], s * geometry.uy[p],
                                s * geometry.uz[p]};
        const double* tbar = tbar_frame + geometry.center[p] * m1_ * 4;
        double* gbar = slot.out_bar.data() + row * m1_;
        for (std::size_t m = 0; m < m1_; ++m) {
          double acc = 0.0;
          for (std::size_t c = 0; c < 4; ++c) acc += tbar[m * 4 + c] * row4[c];
          gbar[m] = nu * acc;
        }
      }
    }
    slot.x_bar.resize(total);
    nn::mlp_backward_batch(model.embedding_net(net), slot.x, total, slot.cache,
                           slot.out_bar, slot.x_bar, {});
    row = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      const double* tbar_frame = workspace.t_bar.data() + f * n * m1_ * 4;
      double* coord_bar = workspace.coord_bar.data() + f * 3 * n;
      for (std::uint32_t p = begin; p < end; ++p, ++row) {
        const double u[3] = {geometry.ux[p], geometry.uy[p], geometry.uz[p]};
        const double* tbar = tbar_frame + geometry.center[p] * m1_ * 4;
        const double* g = g_all.data() + row * m1_;
        double rbar[4];
        for (std::size_t c = 0; c < 4; ++c) {
          double acc = 0.0;
          for (std::size_t m = 0; m < m1_; ++m) acc += tbar[m * 4 + c] * g[m];
          rbar[c] = nu * acc;
        }
        const double sbar = slot.x_bar[row] + rbar[0] + rbar[1] * u[0] +
                            rbar[2] * u[1] + rbar[3] * u[2];
        const double s = geometry.s[p];
        const double ubar[3] = {s * rbar[1], s * rbar[2], s * rbar[3]};
        const double ubar_dot_u = ubar[0] * u[0] + ubar[1] * u[1] + ubar[2] * u[2];
        for (std::size_t k = 0; k < 3; ++k) {
          const double dbar = (ubar[k] - ubar_dot_u * u[k]) / geometry.r[p] +
                              sbar * geometry.ds_dr[p] * u[k];
          coord_bar[3 * geometry.j[p] + k] += dbar;
          coord_bar[3 * geometry.center[p] + k] -= dbar;
        }
      }
    }
  }
}

void FastGraph::tangent_pass(std::span<const FrameGeometry* const> frames,
                             FastWorkspace& workspace, std::span<double> grad) const {
  obs::ScopedTimer timer(tangent_seconds());
  const DeepPotModel& model = *model_;
  const std::vector<md::Species>& types = model.types();
  const std::size_t num_frames = frames.size();
  const std::size_t n = model.num_atoms();
  const double nu = model.sel_norm();
  const std::size_t dwidth = m1_ * m2_;

  workspace.u_dot.resize(3 * workspace.net_row_offset.back());

  // Geometry tangents along lambda (ddot = lambda_j - lambda_i) and the
  // embedding JVP:  rdot = u.ddot, udot = (ddot - u rdot)/r, sdot = s'(r) rdot.
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t total = workspace.net_counts[net];
    if (total == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    slot.x_dot.resize(total);
    std::size_t row = workspace.net_row_offset[net];
    std::size_t local = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      const double* lambda = workspace.lambda.data() + f * 3 * n;
      for (std::uint32_t p = begin; p < end; ++p, ++row, ++local) {
        const double u[3] = {geometry.ux[p], geometry.uy[p], geometry.uz[p]};
        double ddot[3];
        for (std::size_t k = 0; k < 3; ++k) {
          ddot[k] = lambda[3 * geometry.j[p] + k] -
                    lambda[3 * geometry.center[p] + k];
        }
        const double rdot = ddot[0] * u[0] + ddot[1] * u[1] + ddot[2] * u[2];
        double* udot = workspace.u_dot.data() + 3 * row;
        for (std::size_t k = 0; k < 3; ++k) {
          udot[k] = (ddot[k] - u[k] * rdot) / geometry.r[p];
        }
        slot.x_dot[local] = geometry.ds_dr[p] * rdot;
      }
    }
    nn::mlp_jvp_batch(model.embedding_net(net), slot.x_dot, total, slot.cache);
  }

  // Tdot[m][c] = nu * sum_j (gdot[m] R[c] + g[m] Rdot[c]),
  // Rdot = [sdot, sdot u + s udot].
  workspace.t_dot.assign(num_frames * n * m1_ * 4, 0.0);
  for (std::size_t net = 0; net < kNets; ++net) {
    if (workspace.net_counts[net] == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    const std::span<const double> g_all = slot.cache.out();
    const std::span<const double> gdot_all = slot.cache.out_dot();
    std::size_t row = workspace.net_row_offset[net];
    std::size_t local = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      double* t_dot_frame = workspace.t_dot.data() + f * n * m1_ * 4;
      for (std::uint32_t p = begin; p < end; ++p, ++row, ++local) {
        const double s = geometry.s[p];
        const double u[3] = {geometry.ux[p], geometry.uy[p], geometry.uz[p]};
        const double sdot = slot.x_dot[local];
        const double* udot = workspace.u_dot.data() + 3 * row;
        const double row4[4] = {s, s * u[0], s * u[1], s * u[2]};
        const double row_dot[4] = {sdot, sdot * u[0] + s * udot[0],
                                   sdot * u[1] + s * udot[1],
                                   sdot * u[2] + s * udot[2]};
        const double* g = g_all.data() + local * m1_;
        const double* gdot = gdot_all.data() + local * m1_;
        double* tdot = t_dot_frame + geometry.center[p] * m1_ * 4;
        for (std::size_t m = 0; m < m1_; ++m) {
          for (std::size_t c = 0; c < 4; ++c) {
            tdot[m * 4 + c] += nu * (gdot[m] * row4[c] + g[m] * row_dot[c]);
          }
        }
      }
    }
  }

  // Ddot[a][b] = sum_c (Tdot[a][c] T[b][c] + T[a][c] Tdot[b][c]) feeds the
  // fitting JVP; the fitting tangent-reverse yields the fit parameter
  // segments of the combined gradient and the descriptor tangent-adjoints
  // Dbardot.  The output tangent-adjoint seed is e_coef[f] per row -- the
  // tangent of the loss's energy seed -- which is how the energy-term
  // gradient rides this pass (DESIGN.md section 13).
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
    workspace.fit[sp].x_dot.resize(num_frames * atoms * dwidth);
  }
  for (std::size_t f = 0; f < num_frames; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
      double* dst = workspace.fit[sp].x_dot.data() +
                    (f * atoms + atom_slot_[i]) * dwidth;
      const double* tblock = workspace.t.data() + (f * n + i) * m1_ * 4;
      const double* tdot = workspace.t_dot.data() + (f * n + i) * m1_ * 4;
      for (std::size_t a = 0; a < m1_; ++a) {
        for (std::size_t b = 0; b < m2_; ++b) {
          double sum = 0.0;
          for (std::size_t c = 0; c < 4; ++c) {
            sum += tdot[a * 4 + c] * tblock[b * 4 + c] +
                   tblock[a * 4 + c] * tdot[b * 4 + c];
          }
          dst[a * m2_ + b] = sum;
        }
      }
    }
  }
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
    if (atoms == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.fit[sp];
    const std::size_t rows = num_frames * atoms;
    nn::mlp_jvp_batch(model.fitting_net(sp), slot.x_dot, rows, slot.cache);
    slot.out_bar_dot.resize(rows);
    for (std::size_t f = 0; f < num_frames; ++f) {
      std::fill_n(slot.out_bar_dot.begin() +
                      static_cast<std::ptrdiff_t>(f * atoms),
                  atoms, workspace.e_coef[f]);
    }
    slot.x_bar_dot.resize(rows * dwidth);
    const std::span<double> grad_segment = grad.subspan(
        fit_param_offset_[sp], model.fitting_net(sp).num_params());
    nn::mlp_vjp_tangent_batch(model.fitting_net(sp), slot.x, slot.x_dot, rows,
                              slot.cache, slot.out_bar_dot, slot.x_bar_dot,
                              grad_segment);
  }

  // Tangent of the descriptor reverse (product rule on the Tbar formula):
  // Tbardot[p][c] = sum_b (Dbardot[p][b] T[b][c] + Dbar[p][b] Tdot[b][c])
  //             + [p < m2] sum_a (Dbardot[a][p] T[a][c] + Dbar[a][p] Tdot[a][c]).
  workspace.t_bar_dot.resize(num_frames * n * m1_ * 4);
  for (std::size_t f = 0; f < num_frames; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      const std::size_t atoms = species_offsets_[sp + 1] - species_offsets_[sp];
      const double* dbar = workspace.fit[sp].x_bar.data() +
                           (f * atoms + atom_slot_[i]) * dwidth;
      const double* dbardot = workspace.fit[sp].x_bar_dot.data() +
                              (f * atoms + atom_slot_[i]) * dwidth;
      const double* tblock = workspace.t.data() + (f * n + i) * m1_ * 4;
      const double* tdot = workspace.t_dot.data() + (f * n + i) * m1_ * 4;
      double* tbardot = workspace.t_bar_dot.data() + (f * n + i) * m1_ * 4;
      for (std::size_t p = 0; p < m1_; ++p) {
        for (std::size_t c = 0; c < 4; ++c) {
          double acc = 0.0;
          for (std::size_t b = 0; b < m2_; ++b) {
            acc += dbardot[p * m2_ + b] * tblock[b * 4 + c] +
                   dbar[p * m2_ + b] * tdot[b * 4 + c];
          }
          if (p < m2_) {
            for (std::size_t a = 0; a < m1_; ++a) {
              acc += dbardot[a * m2_ + p] * tblock[a * 4 + c] +
                     dbar[a * m2_ + p] * tdot[a * 4 + c];
            }
          }
          tbardot[p * 4 + c] = acc;
        }
      }
    }
  }

  // Embedding tangent-reverse, seeded with the tangent of gbar:
  // gbardot[m] = nu * sum_c (Tbardot[m][c] R[c] + Tbar[m][c] Rdot[c]).
  // Coordinate tangent-adjoints are not needed (only parameter derivatives
  // leave this pass), so x_bar_dot stays empty.
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t total = workspace.net_counts[net];
    if (total == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    slot.out_bar_dot.resize(total * m1_);
    std::size_t row = workspace.net_row_offset[net];
    std::size_t local = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      const double* tbar_frame = workspace.t_bar.data() + f * n * m1_ * 4;
      const double* tbardot_frame =
          workspace.t_bar_dot.data() + f * n * m1_ * 4;
      for (std::uint32_t p = begin; p < end; ++p, ++row, ++local) {
        const double s = geometry.s[p];
        const double u[3] = {geometry.ux[p], geometry.uy[p], geometry.uz[p]};
        const double sdot = slot.x_dot[local];
        const double* udot = workspace.u_dot.data() + 3 * row;
        const double row4[4] = {s, s * u[0], s * u[1], s * u[2]};
        const double row_dot[4] = {sdot, sdot * u[0] + s * udot[0],
                                   sdot * u[1] + s * udot[1],
                                   sdot * u[2] + s * udot[2]};
        const double* tbar = tbar_frame + geometry.center[p] * m1_ * 4;
        const double* tbardot = tbardot_frame + geometry.center[p] * m1_ * 4;
        double* gbardot = slot.out_bar_dot.data() + local * m1_;
        for (std::size_t m = 0; m < m1_; ++m) {
          double acc = 0.0;
          for (std::size_t c = 0; c < 4; ++c) {
            acc += tbardot[m * 4 + c] * row4[c] + tbar[m * 4 + c] * row_dot[c];
          }
          gbardot[m] = nu * acc;
        }
      }
    }
    const std::span<double> grad_segment = grad.subspan(
        embed_param_offset_[net], model.embedding_net(net).num_params());
    nn::mlp_vjp_tangent_batch(model.embedding_net(net), slot.x, slot.x_dot,
                              total, slot.cache, slot.out_bar_dot, {},
                              grad_segment);
  }
}

md::ForceEnergy FastGraph::energy_forces(const FrameGeometry& geometry,
                                         FastWorkspace& workspace) const {
  const FrameGeometry* frame = &geometry;
  primal_pass(std::span<const FrameGeometry* const>(&frame, 1), workspace,
              /*training=*/false);
  md::ForceEnergy out;
  out.energy = workspace.energies[0];
  out.forces.resize(geometry.num_atoms);
  for (std::size_t i = 0; i < geometry.num_atoms; ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      out.forces[i][k] = -workspace.coord_bar[3 * i + k];
    }
  }
  return out;
}

double FastGraph::loss_and_grad(const FrameGeometry& geometry, double energy_ref,
                                std::span<const md::Vec3> forces_ref,
                                const LossWeights& weights,
                                FastWorkspace& workspace,
                                std::span<double> grad) const {
  const FrameTarget target{&geometry, energy_ref, forces_ref};
  double loss = 0.0;
  loss_and_grad_fused(std::span<const FrameTarget>(&target, 1), weights,
                      workspace, grad, std::span<double>(&loss, 1));
  return loss;
}

void FastGraph::loss_and_grad_fused(std::span<const FrameTarget> frames,
                                    const LossWeights& weights,
                                    FastWorkspace& workspace,
                                    std::span<double> grad,
                                    std::span<double> losses) const {
  const std::size_t num_frames = frames.size();
  const std::size_t n = model_->num_atoms();
  if (num_frames == 0) {
    throw util::ValueError("fast_graph: empty fused frame list");
  }
  if (grad.size() != model_->num_params()) {
    throw util::ValueError("fast_graph: grad span size mismatch");
  }
  if (losses.size() != num_frames) {
    throw util::ValueError("fast_graph: losses span size mismatch");
  }
  workspace.frame_ptrs.resize(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f) {
    if (frames[f].forces_ref.size() != n) {
      throw util::ValueError("fast_graph: reference force count mismatch");
    }
    workspace.frame_ptrs[f] = frames[f].geometry;
  }
  const std::span<const FrameGeometry* const> geometries(workspace.frame_ptrs);

  primal_pass(geometries, workspace, /*training=*/true);

  // Per frame: the force residual F_pred - F_ref is both the force part of
  // the loss and, scaled by -f_coef, the coordinate tangent direction of the
  // combined second-order pass.  The energy part seeds the output
  // tangent-adjoints (e_coef), so one tangent pass accumulates the whole
  // gradient dL/dtheta = e_coef dE/dtheta - f_coef grad_theta(residual .
  // dE/dx) for every fused frame at once.
  const double inv_n = 1.0 / static_cast<double>(n);
  const double inv_3n = 1.0 / (3.0 * static_cast<double>(n));
  const double f_coef = 2.0 * weights.pref_f * inv_3n;
  workspace.lambda.resize(num_frames * 3 * n);
  workspace.e_coef.resize(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f) {
    const std::span<const md::Vec3> forces_ref = frames[f].forces_ref;
    const double* coord_bar = workspace.coord_bar.data() + f * 3 * n;
    double* lambda = workspace.lambda.data() + f * 3 * n;
    double force_ss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < 3; ++k) {
        const double residual = -coord_bar[3 * i + k] - forces_ref[i][k];
        lambda[3 * i + k] = -f_coef * residual;
        force_ss += residual * residual;
      }
    }
    const double de = (workspace.energies[f] - frames[f].energy_ref) * inv_n;
    losses[f] = weights.pref_e * de * de + weights.pref_f * force_ss * inv_3n;
    workspace.e_coef[f] = 2.0 * weights.pref_e * de * inv_n;
  }

  std::fill(grad.begin(), grad.end(), 0.0);
  tangent_pass(geometries, workspace, grad);
}

}  // namespace dpho::dp
