#include "md/neighbor.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dpho::md {

namespace {

/// Cell-count cap per side: floor(cbrt(8N + 27)), never below 3.  A box of
/// (L / cutoff)^3 mostly empty bins costs memory without saving pair checks,
/// so a dilute (or hostile) box gets fewer, larger cells instead.  Dense
/// boxes have cells^3 <= N and are never capped.
double max_cells_per_side(std::size_t num_atoms) {
  const double bound = 8.0 * static_cast<double>(num_atoms) + 27.0;
  double side = std::floor(std::cbrt(bound));
  while ((side + 1.0) * (side + 1.0) * (side + 1.0) <= bound) side += 1.0;
  while (side * side * side > bound) side -= 1.0;
  return side;
}

}  // namespace

NeighborList::NeighborList(const Box& box, const std::vector<Vec3>& positions,
                           double cutoff, NeighborBuild mode) {
  build(box, positions, cutoff, mode);
}

void NeighborList::build(const Box& box, const std::vector<Vec3>& positions,
                         double cutoff, NeighborBuild mode) {
  if (!(cutoff > 0.0)) throw util::ValueError("neighbor cutoff must be positive");
  if (cutoff > box.max_cutoff() + 1e-12) {
    throw util::ValueError("neighbor cutoff exceeds half the box edge");
  }
  for (const Vec3& r : positions) {
    if (!std::isfinite(r[0]) || !std::isfinite(r[1]) || !std::isfinite(r[2])) {
      throw util::ValueError("neighbor list: non-finite atom coordinate");
    }
  }
  cutoff_ = cutoff;
  pairs_.clear();
  const double cells_per_side = std::min(std::floor(box.length() / cutoff),
                                         max_cells_per_side(positions.size()));
  bool use_cells = cells_per_side >= 3.0;
  if (mode == NeighborBuild::kBruteForce) use_cells = false;
  if (mode == NeighborBuild::kCells && !use_cells) {
    throw util::ValueError("cell-list build needs a box >= 3 cells wide");
  }
  if (use_cells) {
    build_cells(box, positions, static_cast<long>(cells_per_side));
    used_cells_ = true;
  } else {
    build_brute_force(box, positions);
    used_cells_ = false;
  }
  compress(positions.size());
}

void NeighborList::compress(std::size_t num_atoms) {
  // CSR: count both endpoints of every half-pair, prefix-sum into row
  // offsets, then cursor-fill the flat array.  Emitting pairs in enumeration
  // order keeps each atom's row in exactly the order the old per-atom
  // push_back produced, so downstream summation order is unchanged.
  offsets_.assign(num_atoms + 1, 0);
  for (const HalfPair& pair : pairs_) {
    ++offsets_[pair.i + 1];
    ++offsets_[pair.j + 1];
  }
  for (std::size_t i = 0; i < num_atoms; ++i) offsets_[i + 1] += offsets_[i];
  flat_.resize(offsets_.back());

  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (const HalfPair& pair : pairs_) {
    flat_[cursor_[pair.i]++] =
        Neighbor{pair.j, pair.displacement, pair.distance};
    flat_[cursor_[pair.j]++] = Neighbor{
        pair.i,
        Vec3{-pair.displacement[0], -pair.displacement[1], -pair.displacement[2]},
        pair.distance};
  }
}

void NeighborList::build_brute_force(const Box& box,
                                     const std::vector<Vec3>& positions) {
  const double cutoff_sq = cutoff_ * cutoff_;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const Vec3 d = box.displacement(positions[i], positions[j]);
      const double dist_sq = dot(d, d);
      if (dist_sq >= cutoff_sq || dist_sq == 0.0) continue;
      pairs_.push_back(HalfPair{i, j, d, std::sqrt(dist_sq)});
    }
  }
}

void NeighborList::build_cells(const Box& box, const std::vector<Vec3>& positions,
                               long cells) {
  const double cell_size = box.length() / static_cast<double>(cells);
  const auto cell_of = [&](const Vec3& r) {
    const Vec3 w = box.wrap(r);
    long cx = static_cast<long>(w[0] / cell_size);
    long cy = static_cast<long>(w[1] / cell_size);
    long cz = static_cast<long>(w[2] / cell_size);
    cx = std::min(cx, cells - 1);
    cy = std::min(cy, cells - 1);
    cz = std::min(cz, cells - 1);
    return (cx * cells + cy) * cells + cz;
  };

  // Counting-sort atoms into flattened CSR bins.  Atoms land in each bin in
  // ascending atom order -- the same order the old per-bin push_back
  // produced -- so the pair enumeration below is unchanged.
  const auto num_cells = static_cast<std::size_t>(cells * cells * cells);
  atom_cell_.resize(positions.size());
  bin_offsets_.assign(num_cells + 1, 0);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto c = static_cast<std::size_t>(cell_of(positions[i]));
    atom_cell_[i] = c;
    ++bin_offsets_[c + 1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) bin_offsets_[c + 1] += bin_offsets_[c];
  bin_atoms_.resize(positions.size());
  bin_cursor_.assign(bin_offsets_.begin(), bin_offsets_.end() - 1);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    bin_atoms_[bin_cursor_[atom_cell_[i]]++] = i;
  }
  const auto bin = [&](std::size_t c) {
    return std::span<const std::size_t>(bin_atoms_)
        .subspan(bin_offsets_[c], bin_offsets_[c + 1] - bin_offsets_[c]);
  };

  const double cutoff_sq = cutoff_ * cutoff_;
  const auto wrap_cell = [&](long c) { return ((c % cells) + cells) % cells; };
  for (long cx = 0; cx < cells; ++cx) {
    for (long cy = 0; cy < cells; ++cy) {
      for (long cz = 0; cz < cells; ++cz) {
        const auto home =
            static_cast<std::size_t>((cx * cells + cy) * cells + cz);
        for (long dx = -1; dx <= 1; ++dx) {
          for (long dy = -1; dy <= 1; ++dy) {
            for (long dz = -1; dz <= 1; ++dz) {
              const auto other = static_cast<std::size_t>(
                  (wrap_cell(cx + dx) * cells + wrap_cell(cy + dy)) * cells +
                  wrap_cell(cz + dz));
              if (other < home) continue;  // visit each cell pair once
              for (std::size_t a : bin(home)) {
                for (std::size_t b : bin(other)) {
                  if (home == other && b <= a) continue;
                  const Vec3 d = box.displacement(positions[a], positions[b]);
                  const double dist_sq = dot(d, d);
                  if (dist_sq >= cutoff_sq || dist_sq == 0.0) continue;
                  pairs_.push_back(HalfPair{a, b, d, std::sqrt(dist_sq)});
                }
              }
            }
          }
        }
      }
    }
  }
}

VerletList::VerletList(const Box& box, double cutoff, double skin,
                       NeighborBuild mode)
    : box_(box), cutoff_(cutoff), skin_(skin), mode_(mode) {
  if (skin < 0.0) throw util::ValueError("verlet skin must be >= 0");
  if (cutoff + skin > box.max_cutoff() + 1e-12) {
    throw util::ValueError("verlet cutoff + skin exceeds half the box edge");
  }
}

bool VerletList::needs_rebuild(const std::vector<Vec3>& positions) const {
  if (!built_ || positions.size() != reference_positions_.size()) return true;
  const double threshold_sq = 0.25 * skin_ * skin_;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3 d = box_.displacement(reference_positions_[i], positions[i]);
    if (dot(d, d) > threshold_sq) return true;
  }
  return false;
}

const NeighborList& VerletList::update(const std::vector<Vec3>& positions) {
  if (needs_rebuild(positions)) {
    list_.build(box_, positions, cutoff_ + skin_, mode_);
    built_ = true;
    // assign() reuses reference_positions_' capacity: no allocation once the
    // atom count is stable.
    reference_positions_.assign(positions.begin(), positions.end());
    ++rebuilds_;
  }
  return list_;
}

double NeighborList::mean_neighbors() const {
  if (size() == 0) return 0.0;
  return static_cast<double>(flat_.size()) / static_cast<double>(size());
}

}  // namespace dpho::md
