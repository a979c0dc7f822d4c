// Neighbor search: linked-cell lists with a brute-force fallback and
// reference implementation.
//
// Both the classical reference potential and the DeepPot-SE descriptor need
// "all neighbors of atom i within a radial cutoff".  The cell list is O(N)
// for boxes at least three cells wide; smaller boxes (like the paper's
// 17.84 Angstrom box with an 8+ Angstrom cutoff) automatically fall back to
// the O(N^2) exact scan, which is still cheap at 160 atoms.
//
// Storage is CSR (counts -> prefix-sum offsets -> one flat Neighbor array,
// the lgrtk/CabanaMD layout): the whole topology is two allocations and
// per-atom iteration is a contiguous streaming read, instead of one heap
// vector per atom.  `build()` reuses every internal buffer (pair scratch,
// CSR rows, flattened cell bins), so a warmed list rebuilds without heap
// traffic -- the property the MD sessions' zero-allocation contract rests on.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "md/box.hpp"
#include "md/system.hpp"

namespace dpho::md {

/// One neighbor of a central atom.
struct Neighbor {
  std::size_t index = 0;  // neighbor atom id
  Vec3 displacement{};    // minimum-image r_j - r_i
  double distance = 0.0;
};

/// Which enumeration a NeighborList build uses.  kAuto picks cells when the
/// box is at least three cells wide (O(N)) and the exact O(N^2) scan
/// otherwise; the explicit modes exist for the bench's scaling curves and
/// for tests pinning one path.
enum class NeighborBuild { kAuto, kBruteForce, kCells };

/// Full per-atom neighbor lists (i's list contains j and j's contains i),
/// stored as one flat CSR array indexed by per-atom offsets.
class NeighborList {
 public:
  /// Empty list; call build() before use.
  NeighborList() = default;

  /// Builds lists for all atoms within `cutoff`; throws ValueError when the
  /// cutoff exceeds half the box edge.
  NeighborList(const Box& box, const std::vector<Vec3>& positions, double cutoff,
               NeighborBuild mode = NeighborBuild::kAuto);

  /// Rebuilds in place, reusing all internal storage (grow-only capacity).
  /// Enumeration order is identical to a freshly constructed list.  Throws
  /// ValueError for an invalid cutoff, a non-finite coordinate, or for mode
  /// kCells when the box is under three cells wide.  Cells per side are
  /// capped at floor(cbrt(8N + 27)), so a dilute box cannot allocate more
  /// bins than atoms warrant.
  void build(const Box& box, const std::vector<Vec3>& positions, double cutoff,
             NeighborBuild mode = NeighborBuild::kAuto);

  std::span<const Neighbor> neighbors_of(std::size_t i) const {
    return std::span<const Neighbor>(flat_).subspan(offsets_[i],
                                                    offsets_[i + 1] - offsets_[i]);
  }
  std::size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  double cutoff() const { return cutoff_; }

  /// Mean neighbor count, a load metric used by the benches.
  double mean_neighbors() const;

  /// True when the cell-list path (rather than the exact scan) was used.
  bool used_cells() const { return used_cells_; }

 private:
  /// One directed half-pair from the enumeration; the CSR fill emits it into
  /// both endpoint rows, preserving the enumeration order per atom.
  struct HalfPair {
    std::size_t i = 0;
    std::size_t j = 0;
    Vec3 displacement{};  // r_j - r_i
    double distance = 0.0;
  };

  void build_brute_force(const Box& box, const std::vector<Vec3>& positions);
  void build_cells(const Box& box, const std::vector<Vec3>& positions, long cells);
  /// counts -> offsets -> flat fill, in the half-pair enumeration order.
  void compress(std::size_t num_atoms);

  double cutoff_ = 0.0;
  bool used_cells_ = false;
  std::vector<std::size_t> offsets_;  // num_atoms + 1
  std::vector<Neighbor> flat_;        // offsets_.back() entries

  // Rebuild scratch, reused across build() calls (grow-only).
  std::vector<HalfPair> pairs_;
  std::vector<std::size_t> cursor_;
  // Flattened cell bins (CSR over cells): the same counting-sort layout as
  // the neighbor rows themselves, so binning allocates nothing once warmed.
  std::vector<std::size_t> bin_offsets_;
  std::vector<std::size_t> bin_cursor_;
  std::vector<std::size_t> bin_atoms_;
  std::vector<std::size_t> atom_cell_;
};

/// Verlet list: a NeighborList built at cutoff + skin, reused across MD steps
/// until any atom has moved more than skin/2 (after which pairs could have
/// entered the true cutoff unseen).  Callers filter pairs by the true cutoff
/// themselves (Neighbor::distance is *stale* between rebuilds; only the pair
/// identities are guaranteed complete).
class VerletList {
 public:
  VerletList(const Box& box, double cutoff, double skin,
             NeighborBuild mode = NeighborBuild::kAuto);

  /// Returns the current pair list, rebuilding in place (no allocation once
  /// warmed) if any atom moved > skin/2 since the last rebuild.
  const NeighborList& update(const std::vector<Vec3>& positions);

  const Box& box() const { return box_; }
  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }
  std::size_t rebuild_count() const { return rebuilds_; }

 private:
  bool needs_rebuild(const std::vector<Vec3>& positions) const;

  Box box_;
  double cutoff_;
  double skin_;
  NeighborBuild mode_;
  std::size_t rebuilds_ = 0;
  std::vector<Vec3> reference_positions_;
  bool built_ = false;
  NeighborList list_;
};

}  // namespace dpho::md
