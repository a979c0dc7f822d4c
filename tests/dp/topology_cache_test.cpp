// TopologyCache: cached geometries must equal a fresh build_frame_geometry()
// bit for bit, predictions from them must match whole-frame evaluation, and
// lookups past the warmed range must fail loudly.
#include "dp/topology_cache.hpp"

#include <gtest/gtest.h>

#include "dp/potential.hpp"
#include "hpc/thread_pool.hpp"
#include "md/simulation.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

class TopologyCacheSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);  // 10 atoms
    sim.num_frames = 6;
    sim.equilibration_steps = 60;
    sim.seed = 21;
    data_ = new md::LabelledData(md::generate_reference_data(sim, 0.25));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static DeepPotModel tiny_model() {
    TrainInput config;
    config.descriptor.rcut = 3.5;
    config.descriptor.rcut_smth = 2.0;
    config.descriptor.neuron = {4};
    config.descriptor.axis_neuron = 2;
    config.descriptor.sel = 24;
    config.fitting.neuron = {6};
    return DeepPotModel(config, data_->train.types(),
                        data_->train.mean_energy_per_atom(), 7);
  }

  static md::LabelledData* data_;
};

md::LabelledData* TopologyCacheSuite::data_ = nullptr;

void expect_same_geometry(const FrameGeometry& got, const FrameGeometry& want) {
  EXPECT_EQ(got.num_atoms, want.num_atoms);
  EXPECT_EQ(got.net_offsets, want.net_offsets);
  EXPECT_EQ(got.center, want.center);
  EXPECT_EQ(got.j, want.j);
  EXPECT_EQ(got.r, want.r);
  EXPECT_EQ(got.s, want.s);
  EXPECT_EQ(got.ds_dr, want.ds_dr);
  EXPECT_EQ(got.ux, want.ux);
  EXPECT_EQ(got.uy, want.uy);
  EXPECT_EQ(got.uz, want.uz);
}

FrameGeometry fresh_geometry(const DeepPotModel& model, const md::Frame& frame) {
  FrameGeometry geometry;
  build_frame_geometry(model, frame, geometry);
  return geometry;
}

TEST_F(TopologyCacheSuite, MatchesFreshBuildTopology) {
  const DeepPotModel model = tiny_model();
  TopologyCache cache;
  cache.warm(model, data_->train, data_->train.size());
  ASSERT_EQ(cache.size(), data_->train.size());
  for (std::size_t i = 0; i < data_->train.size(); ++i) {
    expect_same_geometry(cache.geometry_at(i),
                         fresh_geometry(model, data_->train.frame(i)));
  }
}

TEST_F(TopologyCacheSuite, ParallelWarmMatchesSerialWarm) {
  const DeepPotModel model = tiny_model();
  TopologyCache serial;
  serial.warm(model, data_->train, data_->train.size());
  hpc::ThreadPool pool(3);
  TopologyCache threaded;
  threaded.warm(model, data_->train, data_->train.size(), &pool);
  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_same_geometry(threaded.geometry_at(i), serial.geometry_at(i));
  }
}

TEST_F(TopologyCacheSuite, WarmClampsAndExtends) {
  const DeepPotModel model = tiny_model();
  TopologyCache cache;
  cache.warm(model, data_->train, 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_THROW(cache.geometry_at(2), util::ValueError);
  // Extending covers the remaining frames; re-warming is a no-op.
  cache.warm(model, data_->train, data_->train.size() + 100);
  EXPECT_EQ(cache.size(), data_->train.size());
  cache.warm(model, data_->train, 1);
  EXPECT_EQ(cache.size(), data_->train.size());
  const std::size_t last = cache.size() - 1;
  expect_same_geometry(cache.geometry_at(last),
                       fresh_geometry(model, data_->train.frame(last)));
}

TEST_F(TopologyCacheSuite, PredictionsWithCachedTopologyMatch) {
  const DeepPotModel model = tiny_model();
  TopologyCache cache;
  cache.warm(model, data_->train, data_->train.size());
  const Potential potential = Potential::borrow(model);
  const md::Frame& frame = data_->train.frame(0);
  const md::ForceEnergy fresh = potential.evaluate(frame);
  const md::ForceEnergy cached = potential.evaluate(cache.geometry_at(0));
  EXPECT_EQ(fresh.energy, cached.energy);
  ASSERT_EQ(fresh.forces.size(), cached.forces.size());
  for (std::size_t a = 0; a < fresh.forces.size(); ++a) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(fresh.forces[a][k], cached.forces[a][k]);
    }
  }
}

}  // namespace
}  // namespace dpho::dp
