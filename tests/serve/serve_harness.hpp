// Shared fixture helpers for the dp_serve test suites: a tiny model archive.
// Client round trips go through hpc::net::exchange.
#pragma once

#include <optional>
#include <string>

#include "dp/archive.hpp"
#include "hpc/net/frame.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include "../dp/frame_harness.hpp"

namespace dpho::serve::test_harness {

inline dp::DeepPotModel tiny_model(std::uint64_t seed, std::size_t atoms = 8) {
  util::Rng rng(seed);
  return dp::DeepPotModel(
      dp::ModelSpec::from_train_input(
          dp::test_harness::small_config(nn::Activation::kTanh)),
      dp::test_harness::random_types(rng, atoms), -1.5, seed);
}

/// `count` models m0..m<count-1>, all 8 atoms, with distinct weights and
/// graded rmse_f_val objectives (m0 best) so selectors have something to cut.
inline dp::ModelArchive make_archive(const std::filesystem::path& dir,
                                     std::size_t count = 2) {
  dp::ModelArchive archive = dp::ModelArchive::create(dir);
  for (std::size_t i = 0; i < count; ++i) {
    archive.add("m" + std::to_string(i), tiny_model(i + 1),
                {{"rmse_f_val", 0.1 * static_cast<double>(i + 1)}},
                i == 0 ? 0 : 1);
  }
  return archive;
}

}  // namespace dpho::serve::test_harness
