#include "dp/md_session.hpp"

#include <algorithm>
#include <cmath>

#include "dp/potential.hpp"
#include "dp/switching.hpp"
#include "hpc/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dpho::dp {

namespace {

// Same handles the md::ReferenceSession records into: both backends share
// one md.session.* metric family.
obs::Histogram& step_seconds() {
  static obs::Histogram& h = obs::metrics().histogram(
      "md.session.step_seconds", obs::BucketLayout::timing_seconds());
  return h;
}

obs::Histogram& rebuild_seconds() {
  static obs::Histogram& h = obs::metrics().histogram(
      "md.session.rebuild_seconds", obs::BucketLayout::timing_seconds());
  return h;
}

obs::Counter& steps_counter() {
  static obs::Counter& c = obs::metrics().counter("md.session.steps_total");
  return c;
}

obs::Counter& rebuilds_counter() {
  static obs::Counter& c = obs::metrics().counter("md.session.rebuilds_total");
  return c;
}

obs::Counter& pairs_counter() {
  static obs::Counter& c = obs::metrics().counter("md.session.pairs_total");
  return c;
}

}  // namespace

MdSession::MdSession(std::shared_ptr<const DeepPotModel> model,
                     const md::SessionOptions& options)
    : model_(std::move(model)), options_(options) {
  if (!model_) throw util::ValueError("md session needs a model");
  if (options.skin < 0.0) throw util::ValueError("session skin must be >= 0");
  m1_ = model_->spec().m1();
  m2_ = model_->spec().m2();
}

double MdSession::cutoff() const { return model_->spec().descriptor.rcut; }

std::size_t MdSession::neighbor_rebuilds() const {
  return verlet_ ? verlet_->rebuild_count() : 0;
}

void MdSession::initialize(const md::SystemState& state) {
  // The model owns the atom typing (md::Frame carries none); only the count
  // has to line up, exactly like Potential::evaluate.
  if (state.size() != model_->num_atoms()) {
    throw util::ValueError("nnp session: atom count mismatch");
  }
  num_atoms_ = state.size();
  box_ = md::Box(state.box_length);
  skin_ = std::max(
      0.0, std::min(options_.skin, box_.max_cutoff() - cutoff() - 1e-9));
  verlet_.emplace(box_, cutoff(), skin_, options_.neighbor_build);
  chunk_begin_ = md::make_chunk_partition(num_atoms_, options_);
  num_chunks_ = chunk_begin_.size() - 1;

  const std::size_t dwidth = m1_ * m2_;
  const std::vector<md::Species>& types = model_->types();
  chunks_.resize(num_chunks_);
  species_atoms_.assign(num_chunks_, {});
  species_off_.assign(num_chunks_, {});
  atom_slot_.assign(num_chunks_, {});
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    const std::size_t lo = chunk_begin_[c];
    const std::size_t chunk_n = chunk_begin_[c + 1] - lo;
    // Chunk atoms grouped by species in ascending atom order: the fitting
    // nets see one contiguous batch per species.
    auto& off = species_off_[c];
    off.fill(0);
    for (std::size_t li = 0; li < chunk_n; ++li) {
      ++off[static_cast<std::size_t>(types[lo + li]) + 1];
    }
    for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) off[sp + 1] += off[sp];
    species_atoms_[c].resize(chunk_n);
    atom_slot_[c].resize(chunk_n);
    std::array<std::uint32_t, md::kNumSpecies> cursor;
    std::copy_n(off.begin(), md::kNumSpecies, cursor.begin());
    for (std::size_t li = 0; li < chunk_n; ++li) {
      const auto sp = static_cast<std::size_t>(types[lo + li]);
      const std::uint32_t pos = cursor[sp]++;
      species_atoms_[c][pos] = static_cast<std::uint32_t>(li);
      atom_slot_[c][li] = pos - off[sp];
    }

    Chunk& ch = chunks_[c];
    ch.t.resize(chunk_n * m1_ * 4);
    ch.t_bar.resize(chunk_n * m1_ * 4);
    for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
      const std::size_t rows = off[sp + 1] - off[sp];
      ch.fit[sp].x.resize(rows * dwidth);
      ch.fit[sp].x_bar.resize(rows * dwidth);
    }
    ch.atom_energy.resize(chunk_n);
    ch.coord_bar.resize(3 * num_atoms_);
  }
  initialized_ = true;
}

void MdSession::rebuild_skeleton(const md::NeighborList& list) {
  const obs::ScopedTimer timer(rebuild_seconds());
  rebuilds_counter().add(1);
  const std::vector<md::Species>& types = model_->types();

  cand_off_.assign(num_chunks_ * kNets + 1, 0);
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    for (std::size_t i = chunk_begin_[c]; i < chunk_begin_[c + 1]; ++i) {
      for (const md::Neighbor& nb : list.neighbors_of(i)) {
        const std::size_t e =
            DeepPotModel::pair_index(types[i], types[nb.index]);
        ++cand_off_[c * kNets + e + 1];
      }
    }
  }
  for (std::size_t b = 0; b < num_chunks_ * kNets; ++b) {
    cand_off_[b + 1] += cand_off_[b];
  }
  const std::size_t total = cand_off_.back();
  if (cand_.capacity() < total) {
    // Headroom so later rebuilds (density fluctuations) stay allocation-free.
    cand_.reserve(total + total / 8 + 64);
  }
  cand_.resize(total);
  cand_cursor_.assign(cand_off_.begin(), cand_off_.end() - 1);
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    for (std::size_t i = chunk_begin_[c]; i < chunk_begin_[c + 1]; ++i) {
      for (const md::Neighbor& nb : list.neighbors_of(i)) {
        const std::size_t e =
            DeepPotModel::pair_index(types[i], types[nb.index]);
        cand_[cand_cursor_[c * kNets + e]++] =
            (std::uint64_t{i} << 32) | static_cast<std::uint32_t>(nb.index);
      }
    }
  }
  // Canonical candidate order per bucket: (center, neighbor id) ascending.
  // This is what makes a stale-skin walk bitwise-match a fresh rebuild.
  for (std::size_t b = 0; b < num_chunks_ * kNets; ++b) {
    std::sort(cand_.begin() + static_cast<std::ptrdiff_t>(cand_off_[b]),
              cand_.begin() + static_cast<std::ptrdiff_t>(cand_off_[b + 1]));
  }
  // Size each chunk's live-pair arrays to its candidate total (upper bound
  // of the live count; grow-only), then cut it into blocks.
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    Chunk& ch = chunks_[c];
    const std::size_t cand_count =
        cand_off_[(c + 1) * kNets] - cand_off_[c * kNets];
    if (ch.center.capacity() < cand_count) {
      const std::size_t reserve = cand_count + cand_count / 8 + 64;
      ch.center.reserve(reserve);
      ch.j.reserve(reserve);
      ch.r.reserve(reserve);
      ch.s.reserve(reserve);
      ch.ds_dr.reserve(reserve);
      ch.ux.reserve(reserve);
      ch.uy.reserve(reserve);
      ch.uz.reserve(reserve);
      ch.pair_bar.reserve(3 * reserve);
    }
    ch.center.resize(cand_count);
    ch.j.resize(cand_count);
    ch.r.resize(cand_count);
    ch.s.resize(cand_count);
    ch.ds_dr.resize(cand_count);
    ch.ux.resize(cand_count);
    ch.uy.resize(cand_count);
    ch.uz.resize(cand_count);
    ch.pair_bar.resize(3 * cand_count);
    build_blocks(c, list);
  }
}

void MdSession::build_blocks(std::size_t c, const md::NeighborList& list) {
  Chunk& ch = chunks_[c];
  const DeepPotModel& model = *model_;
  const std::vector<md::Species>& types = model.types();
  const std::size_t lo = chunk_begin_[c];
  const std::size_t chunk_n = chunk_begin_[c + 1] - lo;

  // Whole centers in ascending order; a block closes before the center that
  // would take it past kBlockPairs candidates.
  ch.block_begin.clear();
  ch.fit_row.clear();
  std::array<std::uint32_t, md::kNumSpecies> rows{};
  std::size_t pairs = 0;
  for (std::size_t li = 0; li < chunk_n; ++li) {
    const std::size_t n = list.neighbors_of(lo + li).size();
    if (li == 0 || pairs + n > kBlockPairs) {
      ch.block_begin.push_back(static_cast<std::uint32_t>(li));
      ch.fit_row.push_back(rows);
      pairs = 0;
    }
    pairs += n;
    ++rows[static_cast<std::size_t>(types[lo + li])];
  }
  ch.block_begin.push_back(static_cast<std::uint32_t>(chunk_n));
  ch.fit_row.push_back(rows);
  const std::size_t num_blocks = ch.block_begin.size() - 1;

  // Each (chunk, net) bucket is sorted by center, so a block's candidates
  // in it are the run starting at the block's first center.
  ch.cand_begin.resize(kNets * num_blocks + 1);
  ch.live_begin.resize(kNets * num_blocks + 1);
  for (std::size_t net = 0; net < kNets; ++net) {
    const auto first = cand_.begin() +
                       static_cast<std::ptrdiff_t>(cand_off_[c * kNets + net]);
    const auto last = cand_.begin() + static_cast<std::ptrdiff_t>(
                                          cand_off_[c * kNets + net + 1]);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const std::uint64_t key = std::uint64_t{lo + ch.block_begin[b]} << 32;
      ch.cand_begin[net * num_blocks + b] = static_cast<std::size_t>(
          std::lower_bound(first, last, key) - cand_.begin());
    }
  }
  ch.cand_begin[kNets * num_blocks] = cand_off_[(c + 1) * kNets];

  // Size the block workspace for the largest block, so steps until the next
  // rebuild allocate nothing (live rows never exceed candidate rows).
  std::size_t max_pair_rows = 0;
  for (std::size_t net = 0; net < kNets; ++net) {
    std::size_t net_rows = 0;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const std::size_t range = net * num_blocks + b;
      net_rows = std::max(net_rows,
                          ch.cand_begin[range + 1] - ch.cand_begin[range]);
    }
    nn::mlp_reserve_batch(model.embedding_net(net), net_rows,
                          ch.embed_cache[net]);
    max_pair_rows = std::max(max_pair_rows, net_rows);
  }
  std::size_t max_fit_rows = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
      max_fit_rows = std::max<std::size_t>(
          max_fit_rows, ch.fit_row[b + 1][sp] - ch.fit_row[b][sp]);
    }
  }
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    nn::mlp_reserve_batch(model.fitting_net(sp), max_fit_rows, ch.fit_cache);
  }
  ch.g_bar.resize(max_pair_rows * m1_);
  ch.s_bar.resize(max_pair_rows);
  ch.ones.assign(max_fit_rows, 1.0);
}

void MdSession::refresh_chunk(std::size_t c, const md::SystemState& state) {
  Chunk& ch = chunks_[c];
  const std::vector<md::Vec3>& pos = state.positions;
  const SwitchingFunction& switching = model_->switching();
  const double rcut = cutoff();
  const std::size_t num_blocks = ch.block_begin.size() - 1;
  std::uint32_t cursor = 0;
  for (std::size_t range = 0; range < kNets * num_blocks; ++range) {
    ch.live_begin[range] = cursor;
    for (std::size_t k = ch.cand_begin[range]; k < ch.cand_begin[range + 1];
         ++k) {
      const std::uint64_t packed = cand_[k];
      const auto i = static_cast<std::uint32_t>(packed >> 32);
      const auto jj = static_cast<std::uint32_t>(packed & 0xffffffffu);
      const md::Vec3 d = box_.displacement(pos[i], pos[jj]);
      const double r = md::norm(d);
      // Strict r < rcut filter, matching build_frame_geometry.
      if (r >= rcut) continue;
      ch.center[cursor] = i;
      ch.j[cursor] = jj;
      ch.r[cursor] = r;
      ch.s[cursor] = switching.value(r);
      ch.ds_dr[cursor] = switching.derivative(r);
      ch.ux[cursor] = d[0] / r;
      ch.uy[cursor] = d[1] / r;
      ch.uz[cursor] = d[2] / r;
      ++cursor;
    }
  }
  ch.live_begin[kNets * num_blocks] = cursor;
  ch.live_pairs = cursor;
}

void MdSession::eval_block(std::size_t c, std::size_t blk) {
  Chunk& ch = chunks_[c];
  const DeepPotModel& model = *model_;
  const std::vector<md::Species>& types = model.types();
  const std::size_t lo = chunk_begin_[c];
  const std::size_t num_blocks = ch.block_begin.size() - 1;
  const double nu = model.sel_norm();
  const std::size_t dwidth = m1_ * m2_;
  const std::size_t atom_begin = ch.block_begin[blk];
  const std::size_t atom_end = ch.block_begin[blk + 1];

  // Embedding forward, once per net, into the caches the reverse reuses,
  // plus the T contraction T_i[m][c] = nu * sum_j g_j[m] R_j[c].  A
  // center's pairs arrive net by net, pair ascending, as in a whole-chunk
  // net-major sweep.
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t begin = ch.live_begin[net * num_blocks + blk];
    const std::size_t rows = ch.live_begin[net * num_blocks + blk + 1] - begin;
    if (rows == 0) continue;
    nn::mlp_forward_batch(model.embedding_net(net),
                          std::span<const double>(ch.s.data() + begin, rows),
                          rows, ch.embed_cache[net], nn::Curvature::kNone);
    const std::span<const double> g_all = ch.embed_cache[net].out();
    for (std::size_t p = 0; p < rows; ++p) {
      const std::size_t idx = begin + p;
      const double s = ch.s[idx];
      const double row4[4] = {s, s * ch.ux[idx], s * ch.uy[idx],
                              s * ch.uz[idx]};
      const double* g = g_all.data() + p * m1_;
      double* tblock = ch.t.data() + (ch.center[idx] - lo) * m1_ * 4;
      for (std::size_t m = 0; m < m1_; ++m) {
        const double gm = nu * g[m];
        for (std::size_t k = 0; k < 4; ++k) tblock[m * 4 + k] += gm * row4[k];
      }
    }
  }

  // Descriptor D_i[a][b] = sum_c T[a][c] T[b][c] into the fitting rows.
  for (std::size_t li = atom_begin; li < atom_end; ++li) {
    const auto sp = static_cast<std::size_t>(types[lo + li]);
    double* dst = ch.fit[sp].x.data() + atom_slot_[c][li] * dwidth;
    const double* tblock = ch.t.data() + li * m1_ * 4;
    for (std::size_t a = 0; a < m1_; ++a) {
      for (std::size_t b = 0; b < m2_; ++b) {
        double sum = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
          sum += tblock[a * 4 + k] * tblock[b * 4 + k];
        }
        dst[a * m2_ + b] = sum;
      }
    }
  }

  // Fitting forward + reverse over the block's rows of each species.  The
  // atom energies are kept for the fixed-order sum after the last block.
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    const std::size_t row0 = ch.fit_row[blk][sp];
    const std::size_t rows = ch.fit_row[blk + 1][sp] - row0;
    if (rows == 0) continue;
    const std::span<const double> x(ch.fit[sp].x.data() + row0 * dwidth,
                                    rows * dwidth);
    nn::mlp_forward_batch(model.fitting_net(sp), x, rows, ch.fit_cache,
                          nn::Curvature::kNone);
    std::copy_n(ch.fit_cache.out().begin(), rows,
                ch.atom_energy.begin() +
                    static_cast<std::ptrdiff_t>(species_off_[c][sp] + row0));
    const std::span<double> x_bar(ch.fit[sp].x_bar.data() + row0 * dwidth,
                                  rows * dwidth);
    nn::mlp_backward_batch(model.fitting_net(sp), x, rows, ch.fit_cache,
                           std::span<const double>(ch.ones.data(), rows),
                           x_bar, {});
  }

  // Descriptor reverse: Tbar[p][c] = sum_b Dbar[p][b] T[b][c]
  //                               + [p < m2] sum_a Dbar[a][p] T[a][c].
  for (std::size_t li = atom_begin; li < atom_end; ++li) {
    const auto sp = static_cast<std::size_t>(types[lo + li]);
    const double* dbar = ch.fit[sp].x_bar.data() + atom_slot_[c][li] * dwidth;
    const double* tblock = ch.t.data() + li * m1_ * 4;
    double* tbar = ch.t_bar.data() + li * m1_ * 4;
    for (std::size_t p = 0; p < m1_; ++p) {
      for (std::size_t k = 0; k < 4; ++k) {
        double acc = 0.0;
        for (std::size_t b = 0; b < m2_; ++b) {
          acc += dbar[p * m2_ + b] * tblock[b * 4 + k];
        }
        if (p < m2_) {
          for (std::size_t a = 0; a < m1_; ++a) {
            acc += dbar[a * m2_ + p] * tblock[a * 4 + k];
          }
        }
        tbar[p * 4 + k] = acc;
      }
    }
  }

  // Embedding reverse from the kept forward caches, and each pair's
  // coordinate adjoint:
  //   gbar[m] = nu * sum_c Tbar[m][c] R[c]
  //   Rbar[c] = nu * sum_m Tbar[m][c] g[m]
  //   sbar    = sbar_embed + Rbar[0] + sum_k Rbar[k+1] u[k]
  //   ubar_k  = s Rbar[k+1]
  //   dbar    = (ubar - (ubar.u) u)/r + sbar s'(r) u
  // with dbar flowing +into atom j and -into the center atom.
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t begin = ch.live_begin[net * num_blocks + blk];
    const std::size_t rows = ch.live_begin[net * num_blocks + blk + 1] - begin;
    if (rows == 0) continue;
    for (std::size_t p = 0; p < rows; ++p) {
      const std::size_t idx = begin + p;
      const double s = ch.s[idx];
      const double row4[4] = {s, s * ch.ux[idx], s * ch.uy[idx],
                              s * ch.uz[idx]};
      const double* tbar = ch.t_bar.data() + (ch.center[idx] - lo) * m1_ * 4;
      double* gbar = ch.g_bar.data() + p * m1_;
      for (std::size_t m = 0; m < m1_; ++m) {
        double acc = 0.0;
        for (std::size_t k = 0; k < 4; ++k) acc += tbar[m * 4 + k] * row4[k];
        gbar[m] = nu * acc;
      }
    }
    nn::mlp_backward_batch(
        model.embedding_net(net),
        std::span<const double>(ch.s.data() + begin, rows), rows,
        ch.embed_cache[net],
        std::span<const double>(ch.g_bar.data(), rows * m1_),
        std::span<double>(ch.s_bar.data(), rows), {});
    const std::span<const double> g_all = ch.embed_cache[net].out();
    for (std::size_t p = 0; p < rows; ++p) {
      const std::size_t idx = begin + p;
      const double u[3] = {ch.ux[idx], ch.uy[idx], ch.uz[idx]};
      const double* tbar = ch.t_bar.data() + (ch.center[idx] - lo) * m1_ * 4;
      const double* g = g_all.data() + p * m1_;
      double rbar[4];
      for (std::size_t k = 0; k < 4; ++k) {
        double acc = 0.0;
        for (std::size_t m = 0; m < m1_; ++m) acc += tbar[m * 4 + k] * g[m];
        rbar[k] = nu * acc;
      }
      const double sbar = ch.s_bar[p] + rbar[0] + rbar[1] * u[0] +
                          rbar[2] * u[1] + rbar[3] * u[2];
      const double s = ch.s[idx];
      const double ubar[3] = {s * rbar[1], s * rbar[2], s * rbar[3]};
      const double ubar_dot_u =
          ubar[0] * u[0] + ubar[1] * u[1] + ubar[2] * u[2];
      double* pair_bar = ch.pair_bar.data() + 3 * idx;
      for (std::size_t k = 0; k < 3; ++k) {
        pair_bar[k] = (ubar[k] - ubar_dot_u * u[k]) / ch.r[idx] +
                      sbar * ch.ds_dr[idx] * u[k];
      }
    }
  }
}

void MdSession::eval_chunk(std::size_t c, const md::SystemState& state) {
  refresh_chunk(c, state);
  Chunk& ch = chunks_[c];
  const DeepPotModel& model = *model_;
  const std::size_t chunk_n = chunk_begin_[c + 1] - chunk_begin_[c];

  ch.t.assign(ch.t.size(), 0.0);
  for (std::size_t b = 0; b < ch.block_begin.size() - 1; ++b) eval_block(c, b);

  // Energy: species-major, batch row ascending (atom_energy's layout).
  double energy =
      static_cast<double>(chunk_n) * model.energy_bias_per_atom();
  for (const double atom : ch.atom_energy) energy += atom;
  ch.energy = energy;

  // Force assembly into this chunk's full-3N adjoint buffer, in (net, pair)
  // order: the live arrays' order.
  std::fill(ch.coord_bar.begin(), ch.coord_bar.end(), 0.0);
  for (std::size_t idx = 0; idx < ch.live_pairs; ++idx) {
    const double* pair_bar = ch.pair_bar.data() + 3 * idx;
    for (std::size_t k = 0; k < 3; ++k) {
      ch.coord_bar[3 * ch.j[idx] + k] += pair_bar[k];
      ch.coord_bar[3 * ch.center[idx] + k] -= pair_bar[k];
    }
  }
}

double MdSession::compute(const md::SystemState& state,
                          std::span<md::Vec3> forces) {
  const obs::ScopedTimer timer(step_seconds());
  if (!initialized_) initialize(state);
  if (state.size() != num_atoms_ || state.box_length != box_.length()) {
    throw util::ValueError("session is bound to a fixed atom count and box");
  }
  if (forces.size() != num_atoms_) {
    throw util::ValueError("forces span size does not match atom count");
  }
  const md::NeighborList& list = verlet_->update(state.positions);
  if (verlet_->rebuild_count() != seen_rebuilds_) {
    rebuild_skeleton(list);
    seen_rebuilds_ = verlet_->rebuild_count();
  }

  struct DispatchCtx {
    MdSession* self;
    const md::SystemState* state;
  } ctx{this, &state};
  if (options_.pool != nullptr && num_chunks_ > 1) {
    options_.pool->parallel_for_static(
        num_chunks_,
        [](void* raw, std::size_t c) {
          auto* d = static_cast<DispatchCtx*>(raw);
          d->self->eval_chunk(c, *d->state);
        },
        &ctx);
  } else {
    for (std::size_t c = 0; c < num_chunks_; ++c) eval_chunk(c, state);
  }

  // Fixed-order reduction: energies and force adjoints combine serially in
  // chunk order, independent of which thread ran which chunk.
  double energy = 0.0;
  std::size_t live_pairs = 0;
  std::fill(forces.begin(), forces.end(), md::Vec3{0.0, 0.0, 0.0});
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    const Chunk& ch = chunks_[c];
    energy += ch.energy;
    live_pairs += ch.live_pairs;
    const double* cb = ch.coord_bar.data();
    for (std::size_t i = 0; i < num_atoms_; ++i) {
      forces[i][0] -= cb[3 * i];
      forces[i][1] -= cb[3 * i + 1];
      forces[i][2] -= cb[3 * i + 2];
    }
  }
  last_live_pairs_ = live_pairs;
  ++steps_;
  steps_counter().add(1);
  pairs_counter().add(static_cast<std::int64_t>(live_pairs));
  return energy;
}

std::unique_ptr<MdSession> Potential::make_md_session() const {
  return std::make_unique<MdSession>(model_);
}

std::unique_ptr<MdSession> Potential::make_md_session(
    const md::SessionOptions& options) const {
  return std::make_unique<MdSession>(model_, options);
}

}  // namespace dpho::dp
