// Randomized parity of the CSR NeighborList against an in-test brute-force
// reference, across both construction regimes (linked cells and the exact
// fallback scan).  The reference recomputes every pair with box.displacement
// -- the same primitive both build paths use -- so pair sets, displacements
// and distances must match exactly, and the CSR structural invariants
// (monotone offsets, flat storage, mean_neighbors) must hold for any input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "md/neighbor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::md {
namespace {

std::vector<Vec3> random_positions(std::size_t n, double box_length,
                                   util::Rng& rng) {
  std::vector<Vec3> positions(n);
  for (Vec3& r : positions) {
    // Include positions slightly outside [0, L) so wrapping paths are hit.
    r = Vec3{rng.uniform(-0.5, box_length + 0.5),
             rng.uniform(-0.5, box_length + 0.5),
             rng.uniform(-0.5, box_length + 0.5)};
  }
  return positions;
}

/// Brute-force reference rows: for each atom, its neighbors keyed by index.
std::vector<std::map<std::size_t, Neighbor>> brute_rows(
    const Box& box, const std::vector<Vec3>& positions, double cutoff) {
  std::vector<std::map<std::size_t, Neighbor>> rows(positions.size());
  const double cutoff_sq = cutoff * cutoff;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const Vec3 d = box.displacement(positions[i], positions[j]);
      const double dist_sq = dot(d, d);
      if (dist_sq >= cutoff_sq || dist_sq == 0.0) continue;
      const double dist = std::sqrt(dist_sq);
      rows[i][j] = Neighbor{j, d, dist};
      rows[j][i] = Neighbor{i, Vec3{-d[0], -d[1], -d[2]}, dist};
    }
  }
  return rows;
}

void expect_matches_brute(const Box& box, const std::vector<Vec3>& positions,
                          double cutoff, bool expect_cells) {
  const NeighborList list(box, positions, cutoff);
  EXPECT_EQ(list.used_cells(), expect_cells);
  ASSERT_EQ(list.size(), positions.size());

  const auto reference = brute_rows(box, positions, cutoff);
  std::size_t total = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::span<const Neighbor> row = list.neighbors_of(i);
    ASSERT_EQ(row.size(), reference[i].size()) << "atom " << i;
    total += row.size();
    // Row entries must be unique and, entry for entry, carry the exact
    // displacement/distance the reference computed (both paths call
    // box.displacement, so this is equality, not a tolerance).
    std::vector<std::size_t> seen;
    for (const Neighbor& nb : row) {
      seen.push_back(nb.index);
      const auto it = reference[i].find(nb.index);
      ASSERT_NE(it, reference[i].end()) << "atom " << i << " spurious neighbor "
                                        << nb.index;
      EXPECT_EQ(nb.distance, it->second.distance);
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(nb.displacement[k], it->second.displacement[k])
            << "atom " << i << " neighbor " << nb.index << " axis " << k;
      }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
        << "atom " << i << " has duplicate neighbors";
  }
  if (list.size() > 0) {
    EXPECT_DOUBLE_EQ(list.mean_neighbors(),
                     static_cast<double>(total) /
                         static_cast<double>(list.size()));
  }
}

TEST(NeighborCsr, RandomizedParityInCellRegime) {
  util::Rng rng(101);
  for (int trial = 0; trial < 8; ++trial) {
    const double box_length = rng.uniform(20.0, 40.0);
    const double cutoff = rng.uniform(2.5, box_length / 4.0);
    const std::size_t n = 50 + static_cast<std::size_t>(rng.uniform_int(0, 250));
    const Box box(box_length);
    // box_length / cutoff >= 4 > 3 cells per side: cell path guaranteed.
    expect_matches_brute(box, random_positions(n, box_length, rng), cutoff,
                         /*expect_cells=*/true);
  }
}

TEST(NeighborCsr, RandomizedParityInFallbackRegime) {
  util::Rng rng(202);
  for (int trial = 0; trial < 8; ++trial) {
    const double box_length = rng.uniform(8.0, 14.0);
    // box_length / cutoff < 3: fallback exact scan guaranteed (and the
    // cutoff stays below max_cutoff = L/2).
    const double cutoff = rng.uniform(box_length / 2.9, box_length / 2.1);
    const std::size_t n = 20 + static_cast<std::size_t>(rng.uniform_int(0, 120));
    const Box box(box_length);
    expect_matches_brute(box, random_positions(n, box_length, rng), cutoff,
                         /*expect_cells=*/false);
  }
}

TEST(NeighborCsr, CoincidentAndIsolatedAtoms) {
  const Box box(20.0);
  // Two coincident atoms (zero distance is excluded), one pair, one isolate.
  const std::vector<Vec3> positions = {
      {5, 5, 5}, {5, 5, 5}, {10, 10, 10}, {10.5, 10, 10}, {1, 18, 3}};
  const NeighborList list(box, positions, 2.0);
  EXPECT_TRUE(list.neighbors_of(0).empty());
  EXPECT_TRUE(list.neighbors_of(1).empty());
  ASSERT_EQ(list.neighbors_of(2).size(), 1u);
  EXPECT_EQ(list.neighbors_of(2)[0].index, 3u);
  ASSERT_EQ(list.neighbors_of(3).size(), 1u);
  EXPECT_EQ(list.neighbors_of(3)[0].index, 2u);
  EXPECT_TRUE(list.neighbors_of(4).empty());
  EXPECT_DOUBLE_EQ(list.mean_neighbors(), 2.0 / 5.0);
}

TEST(NeighborCsr, DiluteBoxesCapCellsAndKeepParity) {
  // 160 atoms at rcut 6: uncapped, a 2000 A box would bin into 333^3 cells
  // (~300 MB), a 1e5 A box would not fit in memory, and a 1e300 A box would
  // overflow the cells-per-side integer conversion.  The cap keeps each one
  // at floor(cbrt(8 * 160 + 27)) = 10 cells per side.
  util::Rng rng(303);
  for (const double box_length : {2000.0, 1e5, 1e300}) {
    const Box box(box_length);
    expect_matches_brute(box, random_positions(160, box_length, rng), 6.0,
                         /*expect_cells=*/true);
  }
  // A dilute box with real pairs: atoms clustered in one corner.
  const Box box(2000.0);
  std::vector<Vec3> clustered = random_positions(160, 20.0, rng);
  expect_matches_brute(box, clustered, 6.0, /*expect_cells=*/true);
}

TEST(NeighborCsr, RejectsNonFiniteGeometry) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Box{nan}, util::ValueError);
  EXPECT_THROW(Box{inf}, util::ValueError);
  EXPECT_THROW(Box{-inf}, util::ValueError);

  const Box box(20.0);
  for (const double bad : {nan, inf, -inf}) {
    std::vector<Vec3> positions = {{1, 1, 1}, {2, 2, 2}, {3, 3, 3}};
    positions[1][2] = bad;
    EXPECT_THROW(NeighborList(box, positions, 2.0), util::ValueError);
    NeighborList list;
    EXPECT_THROW(list.build(box, positions, 2.0, NeighborBuild::kBruteForce),
                 util::ValueError);
  }
  EXPECT_THROW(NeighborList(box, {{1, 1, 1}}, nan), util::ValueError);
}

}  // namespace
}  // namespace dpho::md
