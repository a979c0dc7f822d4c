#include "dp/potential.hpp"

#include <gtest/gtest.h>

#include "dp/md_session.hpp"
#include "hpc/parallel.hpp"
#include "hpc/thread_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "frame_harness.hpp"

namespace dpho::dp {
namespace {

using test_harness::random_frame;
using test_harness::random_types;
using test_harness::small_config;

DeepPotModel tiny_model(std::uint64_t seed, std::size_t atoms = 8) {
  util::Rng rng(seed);
  return DeepPotModel(ModelSpec::from_train_input(small_config(nn::Activation::kTanh)),
                      random_types(rng, atoms), /*energy_bias_per_atom=*/-1.5, seed);
}

void expect_bitwise_equal(const md::ForceEnergy& a, const md::ForceEnergy& b) {
  EXPECT_EQ(a.energy, b.energy);
  ASSERT_EQ(a.forces.size(), b.forces.size());
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) EXPECT_EQ(a.forces[i][k], b.forces[i][k]);
  }
}

TEST(Potential, MatchesModelEnergyForces) {
  // An owning Potential, a borrowing one and a prebuilt geometry all run the
  // same kernels: bitwise-equal results.
  DeepPotModel model = tiny_model(11);
  util::Rng rng(12);
  const md::Frame frame = random_frame(rng);
  const md::ForceEnergy direct = Potential::borrow(model).evaluate(frame);
  FrameGeometry geometry;
  build_frame_geometry(model, frame, geometry);
  const Potential potential(std::move(model));
  expect_bitwise_equal(potential.evaluate(geometry), direct);
  const md::ForceEnergy via = potential.evaluate(frame);
  EXPECT_EQ(via.energy, direct.energy);
  ASSERT_EQ(via.forces.size(), direct.forces.size());
  for (std::size_t i = 0; i < via.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) EXPECT_EQ(via.forces[i][k], direct.forces[i][k]);
  }
}

TEST(Potential, BorrowSeesParameterUpdates) {
  DeepPotModel model = tiny_model(21);
  const Potential potential = Potential::borrow(model);
  util::Rng rng(22);
  const md::Frame frame = random_frame(rng);
  const double before = potential.evaluate(frame).energy;
  std::vector<double> params = model.gather_params();
  for (double& p : params) p *= 1.25;
  model.scatter_params(params);
  const double after = potential.evaluate(frame).energy;
  EXPECT_NE(before, after);
  EXPECT_EQ(after, Potential::borrow(model).evaluate(frame).energy);
}

TEST(Potential, CheckpointRoundTripIsExact) {
  DeepPotModel model = tiny_model(31);
  util::Rng rng(32);
  const md::Frame frame = random_frame(rng);
  const md::ForceEnergy direct = Potential::borrow(model).evaluate(frame);
  const Potential loaded = Potential::from_checkpoint(model.save());
  const md::ForceEnergy via = loaded.evaluate(frame);
  EXPECT_EQ(via.energy, direct.energy);
  for (std::size_t i = 0; i < via.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) EXPECT_EQ(via.forces[i][k], direct.forces[i][k]);
  }
}

TEST(Potential, BatchMatchesSerialAtAnyThreadCount) {
  const Potential potential(tiny_model(41));
  util::Rng rng(42);
  std::vector<md::Frame> frames;
  for (int i = 0; i < 6; ++i) frames.push_back(random_frame(rng));
  const auto evaluate_all = [&](hpc::ThreadPool* pool) {
    return hpc::parallel_map<md::ForceEnergy>(
        pool, frames.size(), [&](std::size_t f) { return potential.evaluate(frames[f]); });
  };
  const std::vector<md::ForceEnergy> serial = evaluate_all(nullptr);
  for (const std::size_t threads : {2u, 4u}) {
    hpc::ThreadPool pool(threads);
    const std::vector<md::ForceEnergy> parallel = evaluate_all(&pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t f = 0; f < serial.size(); ++f) {
      expect_bitwise_equal(parallel[f], serial[f]);
    }
  }
}

TEST(Potential, ConcurrentEvaluateIsSafeAndDeterministic) {
  // Two Potentials of different shapes interleave on the same pool threads:
  // the per-thread arenas are shared by every Potential and re-sized on each
  // call, so neither sees the other's state.
  const Potential small(tiny_model(51));
  const Potential large(tiny_model(53, /*atoms=*/12));
  util::Rng rng(52);
  std::vector<md::Frame> frames;
  for (int i = 0; i < 8; ++i) {
    frames.push_back(random_frame(rng, i % 2 == 0 ? 8 : 12));
  }
  const auto evaluate = [&](std::size_t f) {
    return (f % 2 == 0 ? small : large).evaluate(frames[f]);
  };
  std::vector<md::ForceEnergy> expected;
  for (std::size_t f = 0; f < frames.size(); ++f) expected.push_back(evaluate(f));
  hpc::ThreadPool pool(4);
  for (int round = 0; round < 4; ++round) {
    const std::vector<md::ForceEnergy> results =
        hpc::parallel_map<md::ForceEnergy>(&pool, frames.size(), evaluate);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      expect_bitwise_equal(results[f], expected[f]);
    }
  }
}

TEST(Potential, RejectsMismatchedAtomCount) {
  const Potential potential(tiny_model(61, /*atoms=*/8));
  util::Rng rng(62);
  const md::Frame frame = random_frame(rng, /*atoms=*/5);
  EXPECT_THROW(potential.evaluate(frame), util::ValueError);
}

TEST(Potential, MdSessionSurvivesSourcePotential) {
  // The session shares ownership of the model, so it outlives the Potential
  // that made it and keeps matching an equal model's whole-frame evaluation.
  util::Rng rng(72);
  const md::Frame frame = random_frame(rng);
  const std::unique_ptr<MdSession> session = Potential(tiny_model(71)).make_md_session();
  md::SystemState state;
  state.types = tiny_model(71).types();
  state.positions = frame.positions;
  state.velocities.assign(frame.positions.size(), md::Vec3{});
  state.box_length = frame.box_length;
  std::vector<md::Vec3> forces(state.size());
  const double energy = session->compute(state, forces);
  const md::ForceEnergy reference = Potential(tiny_model(71)).evaluate(frame);
  EXPECT_NEAR(energy, reference.energy, 1e-9 * std::max(1.0, std::abs(reference.energy)));
  for (std::size_t i = 0; i < forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) EXPECT_NEAR(forces[i][k], reference.forces[i][k], 1e-9);
  }
}

}  // namespace
}  // namespace dpho::dp
