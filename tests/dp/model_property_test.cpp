// Property sweeps of the DeepPot-SE model over the activation and cutoff
// grids the genome can select: the physical invariances must hold for EVERY
// configuration the hyperparameter search can produce.
#include <gtest/gtest.h>

#include <cmath>

#include "dp/model.hpp"
#include "dp/potential.hpp"
#include "md/simulation.hpp"
#include "util/rng.hpp"

namespace dpho::dp {
namespace {

/// Whole-frame prediction through dp::Potential, the one inference path.
md::ForceEnergy predict(const DeepPotModel& model, const md::Frame& frame) {
  return Potential::borrow(model).evaluate(frame);
}

double energy(const DeepPotModel& model, const md::Frame& frame) {
  return predict(model, frame).energy;
}

struct Shared {
  md::Frame frame;
  std::vector<md::Species> types;

  static const Shared& get() {
    static const Shared kShared = [] {
      Shared s;
      md::SimulationConfig sim;
      sim.spec = md::SystemSpec::scaled_system(1);
      sim.num_frames = 1;
      sim.equilibration_steps = 120;
      sim.seed = 71;
      md::Simulation simulation(sim);
      const md::FrameDataset data = simulation.run();
      s.frame = data.frame(0);
      s.types = data.types();
      return s;
    }();
    return kShared;
  }
};

TrainInput config_for(nn::Activation desc, nn::Activation fit, double rcut,
                      double rcut_smth) {
  TrainInput config;
  config.descriptor.rcut = rcut;
  config.descriptor.rcut_smth = rcut_smth;
  config.descriptor.neuron = {4, 6};
  config.descriptor.axis_neuron = 2;
  config.descriptor.sel = 24;
  config.descriptor.activation = desc;
  config.fitting.neuron = {8};
  config.fitting.activation = fit;
  return config;
}

class ActivationPair
    : public ::testing::TestWithParam<std::pair<nn::Activation, nn::Activation>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, ActivationPair,
    ::testing::Values(std::pair{nn::Activation::kTanh, nn::Activation::kTanh},
                      std::pair{nn::Activation::kSoftplus, nn::Activation::kSigmoid},
                      std::pair{nn::Activation::kRelu, nn::Activation::kTanh},
                      std::pair{nn::Activation::kSigmoid, nn::Activation::kSoftplus},
                      std::pair{nn::Activation::kRelu6, nn::Activation::kRelu6},
                      std::pair{nn::Activation::kTanh, nn::Activation::kRelu}),
    [](const auto& param_info) {
      return nn::to_string(param_info.param.first) + "_" +
             nn::to_string(param_info.param.second);
    });

TEST_P(ActivationPair, DoubleAndTapeEnergiesAgree) {
  const auto [desc, fit] = GetParam();
  const Shared& s = Shared::get();
  const DeepPotModel model(config_for(desc, fit, 3.2, 2.0), s.types, -1.0, 7);
  const md::ForceEnergy fe = model.energy_forces_tape(s.frame);
  EXPECT_NEAR(energy(model, s.frame), fe.energy, 1e-9);
}

TEST_P(ActivationPair, TranslationInvariance) {
  const auto [desc, fit] = GetParam();
  const Shared& s = Shared::get();
  const DeepPotModel model(config_for(desc, fit, 3.2, 2.0), s.types, 0.0, 7);
  md::Frame shifted = s.frame;
  for (auto& r : shifted.positions) r = r + md::Vec3{1.1, -0.6, 2.2};
  EXPECT_NEAR(energy(model, shifted), energy(model, s.frame), 1e-8);
}

TEST_P(ActivationPair, NewtonsThirdLawHolds) {
  const auto [desc, fit] = GetParam();
  const Shared& s = Shared::get();
  const DeepPotModel model(config_for(desc, fit, 3.2, 2.0), s.types, 0.0, 7);
  const md::ForceEnergy fe = predict(model, s.frame);
  md::Vec3 net{0, 0, 0};
  for (const md::Vec3& f : fe.forces) net = net + f;
  for (int k = 0; k < 3; ++k) EXPECT_NEAR(net[k], 0.0, 1e-8);
}

TEST_P(ActivationPair, ForcesMatchFiniteDifferences) {
  const auto [desc, fit] = GetParam();
  // relu's kink makes FD checks noisy exactly at activation boundaries;
  // the tolerance below absorbs that without masking sign errors.
  const Shared& s = Shared::get();
  const DeepPotModel model(config_for(desc, fit, 3.2, 2.0), s.types, 0.0, 7);
  const md::ForceEnergy fe = predict(model, s.frame);
  const double h = 1e-5;
  for (std::size_t a = 0; a < 2; ++a) {
    for (int k = 0; k < 3; ++k) {
      md::Frame plus = s.frame;
      md::Frame minus = s.frame;
      plus.positions[a][k] += h;
      minus.positions[a][k] -= h;
      const double numeric =
          -(energy(model, plus) - energy(model, minus)) / (2.0 * h);
      EXPECT_NEAR(fe.forces[a][k], numeric, 2e-2 * std::max(1.0, std::abs(numeric)))
          << "atom " << a << " axis " << k;
    }
  }
}

class CutoffGrid : public ::testing::TestWithParam<std::pair<double, double>> {};

INSTANTIATE_TEST_SUITE_P(Grid, CutoffGrid,
                         ::testing::Values(std::pair{2.6, 1.4}, std::pair{3.0, 2.0},
                                           std::pair{3.4, 2.4}, std::pair{3.5, 3.2}),
                         [](const auto& param_info) {
                           return "rc" + std::to_string(int(param_info.param.first * 10)) +
                                  "sm" + std::to_string(int(param_info.param.second * 10));
                         });

TEST_P(CutoffGrid, EnergyContinuousAlongAPath) {
  const auto [rcut, smth] = GetParam();
  const Shared& s = Shared::get();
  const DeepPotModel model(
      config_for(nn::Activation::kTanh, nn::Activation::kTanh, rcut, smth), s.types,
      0.0, 9);
  md::Frame frame = s.frame;
  double prev = energy(model, frame);
  for (int i = 0; i < 80; ++i) {
    frame.positions[1][1] += 0.015;
    const double e = energy(model, frame);
    EXPECT_LT(std::abs(e - prev), 0.6) << "step " << i;
    prev = e;
  }
}

TEST_P(CutoffGrid, ParamCountIndependentOfCutoffs) {
  // The cutoff genes change geometry, never the network shapes.
  const auto [rcut, smth] = GetParam();
  const Shared& s = Shared::get();
  const DeepPotModel a(
      config_for(nn::Activation::kTanh, nn::Activation::kTanh, rcut, smth), s.types,
      0.0, 9);
  const DeepPotModel b(
      config_for(nn::Activation::kTanh, nn::Activation::kTanh, 3.0, 2.0), s.types,
      0.0, 9);
  EXPECT_EQ(a.num_params(), b.num_params());
}

}  // namespace
}  // namespace dpho::dp
