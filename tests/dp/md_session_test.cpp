#include "dp/md_session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dp/fast_graph.hpp"
#include "dp/potential.hpp"
#include "dp/trainer.hpp"
#include "hpc/thread_pool.hpp"
#include "md/integrator.hpp"
#include "md/simulation.hpp"
#include "nn/simd.hpp"
#include "support/alloc_hook.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

bool bitwise_equal(const std::vector<md::Vec3>& a,
                   const std::vector<md::Vec3>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(md::Vec3)) == 0;
}

// One tiny trained model shared by the whole suite (training dominates the
// fixture cost; the sessions under test are cheap).
class NnpSessionSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);  // 10 atoms
    sim.num_frames = 12;
    sim.equilibration_steps = 200;
    sim.sample_interval = 3;
    sim.seed = 51;
    data_ = new md::LabelledData(md::generate_reference_data(sim, 0.25));

    TrainInput config;
    config.descriptor.rcut = 3.2;
    config.descriptor.rcut_smth = 2.0;
    config.descriptor.neuron = {4, 8};
    config.descriptor.axis_neuron = 3;
    config.descriptor.sel = 24;
    config.fitting.neuron = {12};
    config.learning_rate.start_lr = 0.01;
    config.learning_rate.stop_lr = 0.003;
    config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
    config.training.numb_steps = 40;
    config.training.disp_freq = 40;
    Trainer trainer(config, data_->train, data_->validation);
    trainer.train();
    potential_ = new Potential(trainer.model());
  }
  static void TearDownTestSuite() {
    delete potential_;
    delete data_;
    potential_ = nullptr;
    data_ = nullptr;
  }

  static md::SystemState initial_state(double temperature = 120.0) {
    util::Rng rng(4);
    md::SystemState state =
        md::SystemSpec::scaled_system(1).create_initial_state(temperature, rng);
    state.positions = data_->train.frame(0).positions;
    return state;
  }

  struct Trajectory {
    md::SystemState state;
    std::vector<md::Vec3> forces;
    std::size_t session_steps = 0;
    std::size_t rebuilds = 0;
  };

  static Trajectory run_trajectory(const md::SessionOptions& options,
                                   std::size_t steps) {
    Trajectory out;
    out.state = initial_state();
    auto session = potential_->make_md_session(options);
    const md::VelocityVerlet integrator(0.5);
    out.forces.assign(out.state.size(), md::Vec3{0.0, 0.0, 0.0});
    session->compute(out.state, out.forces);
    for (std::size_t step = 0; step < steps; ++step) {
      integrator.step(out.state, *session, out.forces);
    }
    out.session_steps = session->steps();
    out.rebuilds = session->neighbor_rebuilds();
    return out;
  }

  static md::LabelledData* data_;
  static Potential* potential_;
};

md::LabelledData* NnpSessionSuite::data_ = nullptr;
Potential* NnpSessionSuite::potential_ = nullptr;

TEST_F(NnpSessionSuite, MatchesWholeFramePotentialEvaluate) {
  const md::SystemState state = initial_state();
  auto session = potential_->make_md_session();
  std::vector<md::Vec3> forces(state.size());
  const double energy = session->compute(state, forces);

  md::Frame frame;
  frame.positions = state.positions;
  frame.forces.resize(state.size());
  frame.box_length = state.box_length;
  const md::ForceEnergy reference = potential_->evaluate(frame);
  // Chunked session vs whole-frame FastGraph: different (fixed) summation
  // orders, so agreement is to rounding.
  EXPECT_NEAR(energy, reference.energy,
              1e-9 * std::max(1.0, std::abs(reference.energy)));
  for (std::size_t i = 0; i < state.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_NEAR(forces[i][k], reference.forces[i][k], 1e-9)
          << "atom " << i << " component " << k;
    }
  }
}

TEST_F(NnpSessionSuite, ThreadCountParityBitwise) {
  md::SessionOptions serial;
  serial.chunk_atoms = 2;  // 5 chunks on 10 atoms
  const Trajectory baseline = run_trajectory(serial, 40);
  auto probe = potential_->make_md_session(serial);
  std::vector<md::Vec3> probe_forces(initial_state().size());
  probe->compute(initial_state(), probe_forces);
  EXPECT_GT(probe->num_chunks(), 1u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    hpc::ThreadPool pool(threads);
    md::SessionOptions parallel = serial;
    parallel.pool = &pool;
    const Trajectory run = run_trajectory(parallel, 40);
    EXPECT_TRUE(bitwise_equal(run.state.positions, baseline.state.positions))
        << threads << " threads";
    EXPECT_TRUE(bitwise_equal(run.forces, baseline.forces))
        << threads << " threads";
  }
}

TEST_F(NnpSessionSuite, SessionVsFreshRebuildBitwise) {
  md::SessionOptions skinned;
  skinned.skin = 0.6;
  md::SessionOptions fresh;
  fresh.skin = 0.0;
  const Trajectory a = run_trajectory(skinned, 80);
  const Trajectory b = run_trajectory(fresh, 80);
  EXPECT_TRUE(bitwise_equal(a.state.positions, b.state.positions));
  EXPECT_TRUE(bitwise_equal(a.state.velocities, b.state.velocities));
  EXPECT_TRUE(bitwise_equal(a.forces, b.forces));
  EXPECT_LT(a.rebuilds, a.session_steps);
  EXPECT_EQ(b.rebuilds, b.session_steps);
}

TEST_F(NnpSessionSuite, SteadyStateStepsAllocateNothing) {
  md::SystemState state = initial_state();
  hpc::ThreadPool pool(2);
  md::SessionOptions options;
  options.skin = 0.6;
  options.chunk_atoms = 4;
  options.pool = &pool;
  auto session = potential_->make_md_session(options);
  std::vector<md::Vec3> forces(state.size());
  for (int warm = 0; warm < 3; ++warm) {
    session->compute(state, forces);
    for (auto& r : state.positions) r[0] += 1e-5;
  }
  testsupport::reset_alloc_count();
  for (int step = 0; step < 20; ++step) {
    for (auto& r : state.positions) r[0] += 1e-5;
    session->compute(state, forces);
  }
  EXPECT_EQ(testsupport::alloc_count(), 0u);
}

TEST_F(NnpSessionSuite, FusedTrainingStepAllocatesNothing) {
  // The training kernels (FastGraph::loss_and_grad_fused over the batched
  // MLP forward, reverse, tangent and reverse-tangent passes) run entirely
  // in the workspace: after one warm-up call on a fixed batch, another
  // call allocates nothing and reproduces the gradient bit for bit.
  const DeepPotModel& model = potential_->model();
  const FastGraph graph(model);
  std::vector<FrameGeometry> geometries(4);
  std::vector<FrameTarget> targets;
  for (std::size_t f = 0; f < geometries.size(); ++f) {
    const md::Frame& frame = data_->train.frame(f);
    build_frame_geometry(model, frame, geometries[f]);
    targets.push_back(FrameTarget{&geometries[f], frame.energy, frame.forces});
  }
  const LossWeights weights{0.5, 20.0};
  FastWorkspace workspace;
  std::vector<double> grad(model.num_params());
  std::vector<double> losses(targets.size());
  graph.loss_and_grad_fused(targets, weights, workspace, grad, losses);
  const std::vector<double> warm_grad = grad;

  testsupport::reset_alloc_count();
  graph.loss_and_grad_fused(targets, weights, workspace, grad, losses);
  const std::size_t allocs = testsupport::alloc_count();

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(std::memcmp(grad.data(), warm_grad.data(),
                        grad.size() * sizeof(double)),
            0);
}

TEST_F(NnpSessionSuite, RejectsWrongAtomCountAndBox) {
  auto session = potential_->make_md_session();
  md::SystemState state = initial_state();
  std::vector<md::Vec3> forces(state.size());
  session->compute(state, forces);

  util::Rng rng(9);
  md::SystemState wrong =
      md::SystemSpec::scaled_system(2).create_initial_state(100.0, rng);
  std::vector<md::Vec3> wrong_forces(wrong.size());
  EXPECT_THROW(session->compute(wrong, wrong_forces), util::ValueError);

  md::SystemState resized = state;
  resized.box_length *= 1.5;
  EXPECT_THROW(session->compute(resized, forces), util::ValueError);
}

TEST_F(NnpSessionSuite, WholeFrameEvaluateAllocatesOnlyItsResult) {
  // Potential::evaluate keeps its neighbor list, geometry and workspace in
  // per-thread arenas shared by every Potential: once a thread has evaluated
  // a frame, another frame of that shape costs one allocation (the returned
  // ForceEnergy's force vector) -- also through a Potential constructed
  // after the warm-up, as a serving cache miss does.
  const md::Frame& frame = data_->train.frame(0);
  potential_->evaluate(frame);
  const Potential fresh(potential_->model());

  testsupport::reset_alloc_count();
  const md::ForceEnergy warm = potential_->evaluate(frame);
  const std::size_t warm_allocs = testsupport::alloc_count();
  testsupport::reset_alloc_count();
  const md::ForceEnergy via_fresh = fresh.evaluate(frame);
  const std::size_t fresh_allocs = testsupport::alloc_count();

  EXPECT_EQ(warm_allocs, 1u);
  EXPECT_EQ(fresh_allocs, 1u);
  EXPECT_EQ(via_fresh.energy, warm.energy);
  EXPECT_TRUE(bitwise_equal(via_fresh.forces, warm.forces));
}

// Whole-trajectory checks of NNP molecular dynamics through the session and
// VelocityVerlet::step.  The suite re-trains the shared fixture model.
class NnpMdSuite : public NnpSessionSuite {
 protected:
  /// NVE trajectory from initial_state(temperature); returns the total
  /// energy (potential + kinetic) after every step, starting with step 0.
  static std::vector<double> run_nve(md::SystemState& state, std::size_t steps,
                                     const md::SessionOptions& options = {}) {
    auto session = potential_->make_md_session(options);
    const md::VelocityVerlet integrator(0.5);
    std::vector<md::Vec3> forces(state.size());
    std::vector<double> total_energy;
    double potential_energy = session->compute(state, forces);
    total_energy.push_back(potential_energy + md::kinetic_energy(state));
    for (std::size_t step = 0; step < steps; ++step) {
      potential_energy = integrator.step(state, *session, forces);
      total_energy.push_back(potential_energy + md::kinetic_energy(state));
    }
    return total_energy;
  }
};

TEST_F(NnpMdSuite, ProviderMatchesModelPredictions) {
  // A multi-chunk session on a pool against the whole-frame Potential: the
  // chunked kernel sums energies and force adjoints in a different (fixed)
  // order, so agreement is to rounding, not bitwise.
  hpc::ThreadPool pool(2);
  md::SessionOptions options;
  options.chunk_atoms = 3;
  options.pool = &pool;
  auto session = potential_->make_md_session(options);
  const md::SystemState state = initial_state(150.0);
  std::vector<md::Vec3> forces(state.size());
  const double energy = session->compute(state, forces);
  EXPECT_GT(session->num_chunks(), 1u);

  md::Frame frame;
  frame.positions = state.positions;
  frame.forces.resize(state.size());
  frame.box_length = state.box_length;
  const md::ForceEnergy ref = potential_->evaluate(frame);
  EXPECT_NEAR(energy, ref.energy, 1e-9 * std::max(1.0, std::abs(ref.energy)));
  for (std::size_t i = 0; i < ref.forces.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_NEAR(forces[i][k], ref.forces[i][k], 1e-9)
          << "atom " << i << " component " << k;
    }
  }
}

TEST_F(NnpMdSuite, NveOnLearnedSurfaceConservesEnergy) {
  // Forces are exact gradients of a smooth learned energy, so NVE on the
  // model conserves total energy to integrator error -- the paper's
  // force-consistency requirement for stable dynamics (section 3.2).
  md::SystemState state = initial_state(100.0);
  const std::vector<double> energies = run_nve(state, 200);
  ASSERT_EQ(energies.size(), 201u);
  double max_drift = 0.0;
  for (double e : energies) max_drift = std::max(max_drift, std::abs(e - energies[0]));
  const double kinetic_scale = std::max(1.0, std::abs(md::kinetic_energy(state)));
  EXPECT_LT(max_drift, 0.1 * kinetic_scale);
}

TEST_F(NnpMdSuite, DynamicsStaysBounded) {
  md::SystemState state = initial_state(200.0);
  run_nve(state, 150);
  const md::Box box(state.box_length);
  for (const md::Vec3& r : state.positions) {
    const md::Vec3 wrapped = box.wrap(r);
    EXPECT_TRUE(std::isfinite(wrapped[0]));
  }
  EXPECT_LT(md::kinetic_temperature(state), 5000.0);  // no explosion
}

TEST_F(NnpMdSuite, AtomCountMismatchThrows) {
  // A fresh session refuses a mismatched system on its very first call
  // (RejectsWrongAtomCountAndBox covers a warmed session).
  auto session = potential_->make_md_session();
  util::Rng rng(5);
  md::SystemState wrong =
      md::SystemSpec::scaled_system(2).create_initial_state(100.0, rng);
  std::vector<md::Vec3> forces(wrong.size());
  EXPECT_THROW(session->compute(wrong, forces), util::ValueError);
}

// Sessions whose chunks span several blocks: 640 atoms (scaled_system(64)) at
// 498 K under an untrained fixed-seed model of the md_nnp benchmark's shape
// (rcut 6 A, embedding {8,16}, axis 4, fitting {24,24}) in 128-atom chunks,
// so each chunk holds several thousand candidate pairs, i.e. several blocks
// of at most MdSession::kBlockPairs.  The 10-atom suites above fit in one
// block.
class MultiBlockSession : public ::testing::Test {
 protected:
  static md::SessionOptions options(hpc::ThreadPool* pool = nullptr) {
    md::SessionOptions out;
    out.chunk_atoms = 128;
    out.pool = pool;
    return out;
  }

  static void SetUpTestSuite() {
    util::Rng rng(7);
    start_ = new md::SystemState(
        md::SystemSpec::scaled_system(64).create_initial_state(498.0, rng));
    TrainInput shape;
    shape.descriptor.rcut = 6.0;
    shape.descriptor.rcut_smth = 3.0;
    shape.descriptor.neuron = {8, 16};
    shape.descriptor.axis_neuron = 4;
    shape.descriptor.sel = 128;
    shape.fitting.neuron = {24, 24};
    model_ = new std::shared_ptr<const DeepPotModel>(
        std::make_shared<const DeepPotModel>(shape, start_->types, 0.0,
                                             0x5EED));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete start_;
    model_ = nullptr;
    start_ = nullptr;
  }

  struct Trajectory {
    md::SystemState state;
    std::vector<md::Vec3> forces;
    std::vector<double> energies;  // potential energy at every step
  };

  static Trajectory run_trajectory(const md::SessionOptions& options,
                                   std::size_t steps) {
    Trajectory out;
    out.state = *start_;
    MdSession session(*model_, options);
    const md::VelocityVerlet integrator(0.5);
    out.forces.assign(out.state.size(), md::Vec3{0.0, 0.0, 0.0});
    out.energies.push_back(session.compute(out.state, out.forces));
    for (std::size_t step = 0; step < steps; ++step) {
      out.energies.push_back(integrator.step(out.state, session, out.forces));
    }
    return out;
  }

  /// FNV-1a over the bytes of the final positions and forces and of every
  /// step's energy.  The model's energy bias is 0, so a reordered energy sum
  /// shows in the low bits.
  static std::uint64_t digest(const Trajectory& run) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void* data, std::size_t size) {
      const auto* bytes = static_cast<const unsigned char*>(data);
      for (std::size_t k = 0; k < size; ++k) {
        h = (h ^ bytes[k]) * 0x100000001b3ULL;
      }
    };
    mix(run.state.positions.data(),
        run.state.positions.size() * sizeof(md::Vec3));
    mix(run.forces.data(), run.forces.size() * sizeof(md::Vec3));
    mix(run.energies.data(), run.energies.size() * sizeof(double));
    return h;
  }

  static md::SystemState* start_;
  static std::shared_ptr<const DeepPotModel>* model_;
};

md::SystemState* MultiBlockSession::start_ = nullptr;
std::shared_ptr<const DeepPotModel>* MultiBlockSession::model_ = nullptr;

/// Restores the SIMD dispatch level a test found.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : was_(nn::simd::enabled()) {}
  ~SimdLevelGuard() { nn::simd::set_enabled(was_); }
  SimdLevelGuard(const SimdLevelGuard&) = delete;
  SimdLevelGuard& operator=(const SimdLevelGuard&) = delete;

 private:
  bool was_;
};

TEST_F(MultiBlockSession, EveryChunkSpansSeveralBlocks) {
  MdSession session(*model_, options());
  std::vector<md::Vec3> forces(start_->size());
  session.compute(*start_, forces);
  ASSERT_EQ(session.num_chunks(), 5u);
  for (std::size_t c = 0; c < session.num_chunks(); ++c) {
    EXPECT_GE(session.num_blocks(c), 3u) << "chunk " << c;
  }
}

TEST_F(MultiBlockSession, TwentyStepDigestMatchesGoldenPerSimdLevel) {
  // Recorded with the chunk kernel that ran two net-major embedding sweeps
  // per step, before the block kernel replaced it: the rewrite changes no
  // bit.  The AVX2 forward kernel sums dot products in a different order
  // from scalar, hence one digest per dispatch level.
  const SimdLevelGuard guard;
  for (const bool vector : {true, false}) {
    if (vector && !nn::simd::available()) continue;
    nn::simd::set_enabled(vector);
    const std::string level = nn::simd::level_name();
    const std::uint64_t golden =
        level == "avx2-fma" ? 0x1f6a73b7230428e5ULL : 0x1b0b7a0009e3cf71ULL;
    const std::uint64_t actual = digest(run_trajectory(options(), 20));
    EXPECT_EQ(actual, golden) << level << " digest 0x" << std::hex << actual;
  }
}

TEST_F(MultiBlockSession, PoolSizeParityBitwise) {
  const Trajectory serial = run_trajectory(options(), 20);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    hpc::ThreadPool pool(threads);
    const Trajectory run = run_trajectory(options(&pool), 20);
    EXPECT_TRUE(bitwise_equal(run.state.positions, serial.state.positions))
        << threads << " threads";
    EXPECT_TRUE(bitwise_equal(run.forces, serial.forces))
        << threads << " threads";
    EXPECT_EQ(std::memcmp(run.energies.data(), serial.energies.data(),
                          serial.energies.size() * sizeof(double)),
              0)
        << threads << " threads";
  }
}

TEST_F(MultiBlockSession, SteadyStateStepsAllocateNothing) {
  // Unlike the 10-atom model, this one has a deeper fitting net (3 layers)
  // than embedding net (2): a cache shared by both re-created the fitting
  // net's last-layer buffers on every step (600 allocations here).
  md::SystemState state = *start_;
  hpc::ThreadPool pool(2);
  MdSession session(*model_, options(&pool));
  std::vector<md::Vec3> forces(state.size());
  for (int warm = 0; warm < 3; ++warm) {
    session.compute(state, forces);
    for (auto& r : state.positions) r[0] += 1e-5;
  }
  const std::size_t rebuilds = session.neighbor_rebuilds();
  testsupport::reset_alloc_count();
  for (int step = 0; step < 20; ++step) {
    for (auto& r : state.positions) r[0] += 1e-5;
    session.compute(state, forces);
  }
  EXPECT_EQ(testsupport::alloc_count(), 0u);
  EXPECT_EQ(session.neighbor_rebuilds(), rebuilds);
}

}  // namespace
}  // namespace dpho::dp
