// Persistent NNP evaluation session: the zero-allocation MD hot path over a
// trained DeepPot-SE model.
//
// Potential::evaluate() rebuilds topology and geometry from scratch every
// call -- right for scattered training frames, wasteful for MD where step
// t+1's neighborhood is step t's plus a skin.  MdSession keeps a Verlet-skin
// candidate skeleton and all kernel workspace alive across steps:
//
//   * topology (a md::VerletList at rcut + skin) is rebuilt only on skin
//     triggers; between rebuilds each step refreshes r/s/ds_dr/unit vectors
//     in place from the stale pair identities;
//   * the force kernel is the same math as dp::FastGraph's primal pass
//     (embedding forward -> T contraction -> descriptor -> fitting forward/
//     reverse -> embedding reverse + force assembly), restructured over
//     contiguous center-atom chunks so it parallelizes over a ThreadPool;
//   * each chunk runs in blocks of whole center atoms, fixed at every
//     skeleton rebuild so that a block holds at most about kBlockPairs
//     candidate pairs.  A block runs every embedding net forward once,
//     keeps those activations (one MlpBatchCache per net, sized at the
//     rebuild) and reuses them in the embedding reverse: one embedding pass
//     per step, and a cache footprint bounded by the block, not the pair
//     count (131k-atom boxes have ~10M candidate pairs).
//
// Determinism contract (repo-wide): the chunk partition and all loop orders
// are pure functions of (model, options, N) -- never of the thread count.
// Every row of a batched net pass is independent of the other rows, so the
// block boundaries change no value; the two sums that cross blocks keep one
// canonical order instead.  Per-atom energies are stored and summed after the
// last block species-major, batch row ascending; each live pair's coordinate
// adjoint (3 doubles per candidate) is stored and scattered after the last
// block in (net, pair) order.  Each chunk scatters into its own full-3N
// buffer; buffers are combined serially in chunk order.  Candidate rows are
// sorted (center, neighbor id) ascending, so a stale-skin walk visits pairs
// in exactly the order a fresh rebuild would: trajectories are bit-identical
// across thread counts AND across skin settings.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dp/model.hpp"
#include "md/box.hpp"
#include "md/neighbor.hpp"
#include "md/session.hpp"
#include "md/system.hpp"
#include "nn/mlp_kernels.hpp"

namespace dpho::dp {

/// md::PotentialSession over a DeepPot-SE model.  Bound to the model's atom
/// count/types and, after the first compute(), to one box length.
class MdSession final : public md::PotentialSession {
 public:
  /// Candidate pairs per block of whole center atoms (a block with one
  /// center holds all of its candidates, however many): bounds the
  /// per-chunk embedding caches independently of the pair count.
  static constexpr std::size_t kBlockPairs = 1024;

  /// Shares ownership of `model`; `options.pool` (if any) is borrowed and
  /// must outlive the session.
  explicit MdSession(std::shared_ptr<const DeepPotModel> model,
                     const md::SessionOptions& options = {});

  double compute(const md::SystemState& state,
                 std::span<md::Vec3> forces) override;
  double cutoff() const override;
  double skin() const override { return skin_; }
  std::size_t steps() const override { return steps_; }
  std::size_t neighbor_rebuilds() const override;

  std::size_t num_chunks() const { return num_chunks_; }
  /// Blocks of chunk `c` since the last skeleton rebuild.
  std::size_t num_blocks(std::size_t c) const {
    return chunks_[c].block_begin.size() - 1;
  }
  /// Live (r < rcut) pairs of the last compute(), summed over chunks.
  std::size_t last_live_pairs() const { return last_live_pairs_; }

 private:
  static constexpr std::size_t kNets = md::kNumSpecies * md::kNumSpecies;

  struct Chunk {
    // Live pair geometry (net-major, refreshed in place each step).  Arrays
    // are sized to the candidate count at skeleton rebuilds; within a net,
    // pairs run block by block.
    std::vector<std::uint32_t> center, j;
    std::vector<double> r, s, ds_dr, ux, uy, uz;
    // Coordinate adjoint of each live pair (3 per pair, same indexing).
    std::vector<double> pair_bar;

    // Blocks of whole center atoms, fixed at skeleton rebuilds:
    // block_begin[b] is the chunk-local first atom of block b (num_blocks+1
    // entries); fit_row[b][sp] the species-sp fitting row of that atom.
    std::vector<std::uint32_t> block_begin;
    std::vector<std::array<std::uint32_t, md::kNumSpecies>> fit_row;
    // (net, block) ranges, net-major: entry net * num_blocks + b starts the
    // range and the next entry ends it.  cand_begin indexes cand_, live_begin
    // the live pair arrays (refreshed each step).
    std::vector<std::size_t> cand_begin;
    std::vector<std::uint32_t> live_begin;

    // Per-atom T blocks of this chunk's atoms (chunk-local, m1 x 4 each).
    std::vector<double> t, t_bar;

    // Fitting batches: chunk atoms grouped by species, ascending atom order.
    struct FitSlot {
      std::vector<double> x, x_bar;  // rows x (m1 * m2)
    };
    std::array<FitSlot, md::kNumSpecies> fit;
    // Per-atom fitting energies, species-major rows (species_off_ layout).
    std::vector<double> atom_energy;

    // Block workspace: the kept embedding activations (one cache per net),
    // the fitting cache, and the adjoint rows of the reverse passes.
    std::array<nn::MlpBatchCache, kNets> embed_cache;
    nn::MlpBatchCache fit_cache;
    std::vector<double> g_bar, s_bar, ones;

    // Full-3N coordinate adjoints from this chunk's centers.
    std::vector<double> coord_bar;
    double energy = 0.0;
    std::size_t live_pairs = 0;
  };

  void initialize(const md::SystemState& state);
  void rebuild_skeleton(const md::NeighborList& list);
  void build_blocks(std::size_t c, const md::NeighborList& list);
  void refresh_chunk(std::size_t c, const md::SystemState& state);
  void eval_chunk(std::size_t c, const md::SystemState& state);
  void eval_block(std::size_t c, std::size_t blk);

  std::shared_ptr<const DeepPotModel> model_;
  md::SessionOptions options_;
  double skin_ = 0.0;
  md::Box box_{1.0};
  std::size_t num_atoms_ = 0;
  bool initialized_ = false;
  std::optional<md::VerletList> verlet_;
  std::size_t seen_rebuilds_ = 0;
  std::size_t steps_ = 0;
  std::size_t last_live_pairs_ = 0;

  std::size_t m1_ = 0;
  std::size_t m2_ = 0;

  // Fixed chunk partition and per-chunk species grouping (functions of the
  // model and options only).
  std::size_t num_chunks_ = 1;
  std::vector<std::size_t> chunk_begin_;
  std::vector<Chunk> chunks_;
  // Per chunk: chunk-local atom ids grouped by species (ascending), offsets,
  // and the chunk-local atom -> batch-row map.
  std::vector<std::vector<std::uint32_t>> species_atoms_;
  std::vector<std::array<std::uint32_t, md::kNumSpecies + 1>> species_off_;
  std::vector<std::vector<std::uint32_t>> atom_slot_;

  // Candidate skeleton: per (chunk, net) buckets of packed (center << 32 | j)
  // pairs, each bucket sorted ascending.  Rebuilt on Verlet triggers.
  std::vector<std::size_t> cand_off_;  // num_chunks_ * kNets + 1
  std::vector<std::size_t> cand_cursor_;
  std::vector<std::uint64_t> cand_;
};

}  // namespace dpho::dp
