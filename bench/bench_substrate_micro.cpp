// Substrate micro-benchmarks: the kernels a real (non-surrogate) evaluation
// spends its time in -- MD stepping for data generation, whole-frame
// DeepPot-SE evaluation (dp::Potential), an NNP MD step (dp::MdSession), one
// MdSession embedding tile through the batched MLP forward, and one full
// training step.  These
// support the paper's framing that the per-individual training dominates the
// workflow cost (everything around it is negligible).  The dp_serve codec
// rows (a 160-atom reply encoded, a 160-atom request parsed) show the same
// for the serving path: the JSON around an evaluation next to the
// evaluation itself.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "dp/fast_graph.hpp"
#include "dp/loss.hpp"
#include "dp/md_session.hpp"
#include "dp/potential.hpp"
#include "md/integrator.hpp"
#include "md/session.hpp"
#include "md/simulation.hpp"
#include "nn/mlp_kernels.hpp"
#include "nn/optimizer.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace {

using namespace dpho;

struct Fixture {
  md::LabelledData data;
  dp::TrainInput config;

  static const Fixture& instance() {
    static const Fixture kFixture = [] {
      Fixture f;
      md::SimulationConfig sim;
      sim.spec = md::SystemSpec::scaled_system(2);  // 20 atoms
      sim.num_frames = 8;
      sim.equilibration_steps = 150;
      sim.seed = 12;
      f.data = md::generate_reference_data(sim, 0.25);
      f.config.descriptor.rcut = 4.0;
      f.config.descriptor.rcut_smth = 2.0;
      f.config.descriptor.neuron = {8, 16};
      f.config.descriptor.axis_neuron = 4;
      f.config.descriptor.sel = 32;
      f.config.fitting.neuron = {32, 32};
      f.config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
      f.config.training.numb_steps = 4;
      return f;
    }();
    return kFixture;
  }
};

void print_context() {
  bench::print_header("Substrate micro-benchmarks",
                      "MD stepping, Potential::evaluate, NNP MD step, training step");
  const auto& f = Fixture::instance();
  std::printf("system: %zu atoms, box %.2f A; model: embed {8,16} M2=4,"
              " fit {32,32}\n",
              f.data.train.types().size(), f.data.train.frame(0).box_length);
}

void BM_MdStep160Atoms(benchmark::State& state) {
  util::Rng rng(3);
  const md::SystemSpec spec = md::SystemSpec::paper_system();
  md::SystemState md_state = spec.create_initial_state(498.0, rng);
  md::ReferenceSession session(md::ReferencePotential(8.5));
  const md::VelocityVerlet integrator(1.0);
  std::vector<md::Vec3> forces(md_state.size());
  session.compute(md_state, forces);
  for (auto _ : state) {
    benchmark::DoNotOptimize(integrator.step(md_state, session, forces));
  }
}
BENCHMARK(BM_MdStep160Atoms);

void BM_NeighborList160Atoms(benchmark::State& state) {
  util::Rng rng(4);
  const md::SystemSpec spec = md::SystemSpec::paper_system();
  const md::SystemState md_state = spec.create_initial_state(498.0, rng);
  const md::Box box(md_state.box_length);
  for (auto _ : state) {
    benchmark::DoNotOptimize(md::NeighborList(box, md_state.positions, 8.5));
  }
}
BENCHMARK(BM_NeighborList160Atoms);

/// One 160-atom paper-system frame with its reference forces and energy: a
/// full-size dp_serve message body.
const md::Frame& frame160() {
  static const md::Frame kFrame = [] {
    util::Rng rng(5);
    const md::SystemState md_state =
        md::SystemSpec::paper_system().create_initial_state(498.0, rng);
    md::ReferenceSession session(md::ReferencePotential(8.5));
    md::Frame frame;
    frame.positions = md_state.positions;
    frame.box_length = md_state.box_length;
    frame.forces.resize(md_state.size());
    frame.energy = session.compute(md_state, frame.forces);
    return frame;
  }();
  return kFrame;
}

void BM_EncodeEvalReply160(benchmark::State& state) {
  const md::Frame& frame = frame160();
  serve::EvalReply reply{1, "m0", {frame.energy}, {{}}};
  for (const md::Vec3& f : frame.forces) {
    reply.forces[0].insert(reply.forces[0].end(), {f[0], f[1], f[2]});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::encode_eval_reply(reply).dump());
  }
}
BENCHMARK(BM_EncodeEvalReply160);

void BM_ParseEvalRequest160(benchmark::State& state) {
  md::Frame bare;
  bare.positions = frame160().positions;
  bare.box_length = frame160().box_length;
  const std::string text =
      serve::encode_eval_request(serve::EvalRequest{1, "m0", true, {bare}}).dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::decode_eval_request(util::Json::parse(text)));
  }
}
BENCHMARK(BM_ParseEvalRequest160);

dp::DeepPotModel fixture_model() {
  const auto& f = Fixture::instance();
  return dp::DeepPotModel(f.config, f.data.train.types(),
                          f.data.train.mean_energy_per_atom(), 5);
}

void BM_PotentialEvaluate(benchmark::State& state) {
  const dp::Potential potential(fixture_model());
  const md::Frame& frame = Fixture::instance().data.train.frame(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(potential.evaluate(frame));
  }
}
BENCHMARK(BM_PotentialEvaluate);

void BM_NnpMdSessionStep(benchmark::State& state) {
  const auto& f = Fixture::instance();
  const dp::Potential potential(fixture_model());
  const auto session = potential.make_md_session();
  util::Rng rng(6);
  md::SystemState md_state =
      md::SystemSpec::scaled_system(2).create_initial_state(498.0, rng);
  md_state.types = f.data.train.types();
  md_state.positions = f.data.train.frame(0).positions;
  const md::VelocityVerlet integrator(0.5);
  std::vector<md::Vec3> forces(md_state.size());
  session->compute(md_state, forces);
  for (auto _ : state) {
    benchmark::DoNotOptimize(integrator.step(md_state, *session, forces));
  }
}
BENCHMARK(BM_NnpMdSessionStep);

void BM_MlpForwardEmbeddingTile(benchmark::State& state) {
  // One MdSession recompute tile through the tanh {8,16} embedding net: the
  // batched dense layers plus one activation pass per layer.  Arg 0 is the
  // inference/MD forward (y, sigma'), arg 1 the training forward that also
  // caches sigma''.
  const dp::DeepPotModel model = fixture_model();
  const nn::Mlp& net = model.embedding_net(0);
  const std::size_t rows = dp::MdSession::kTileRows;
  util::Rng rng(8);
  std::vector<double> x(rows * net.input_width());
  for (double& v : x) v = rng.uniform(0.0, 1.0);
  const nn::Curvature curvature =
      state.range(0) != 0 ? nn::Curvature::kCache : nn::Curvature::kNone;
  nn::MlpBatchCache cache;
  for (auto _ : state) {
    nn::mlp_forward_batch(net, x, rows, cache, curvature);
    benchmark::DoNotOptimize(cache.y.back().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_MlpForwardEmbeddingTile)->ArgName("curvature")->Arg(0)->Arg(1);

void BM_FullTrainingStep(benchmark::State& state) {
  // One Adam step on one frame's analytic loss gradient, including the
  // force-loss second-order term (the trainer's kernel, unfused).
  const auto& f = Fixture::instance();
  dp::DeepPotModel model = fixture_model();
  const md::Frame& frame = f.data.train.frame(0);
  dp::FrameGeometry geometry;
  dp::build_frame_geometry(model, frame, geometry);
  const dp::FastGraph fast(model);
  dp::FastWorkspace workspace;
  const nn::ExponentialDecay schedule(0.001, 1e-4, 1000);
  const dp::DeepmdLoss loss(dp::LossConfig{}, schedule);
  const dp::LossWeights weights = loss.weights_at(0);
  std::vector<double> params = model.gather_params();
  std::vector<double> grad(params.size());
  nn::Adam adam(params.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast.loss_and_grad(geometry, frame.energy, frame.forces,
                                                weights, workspace, grad));
    adam.step(params, grad, 1e-3);
    model.scatter_params(params);
  }
}
BENCHMARK(BM_FullTrainingStep);

void BM_SurrogateEvaluation(benchmark::State& state) {
  const core::TrainingSurrogate surrogate;
  core::HyperParams hp;
  hp.start_lr = 0.0047;
  hp.stop_lr = 1e-4;
  hp.rcut = 10.5;
  hp.rcut_smth = 2.4;
  hp.scale_by_worker = nn::LrScaling::kNone;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(surrogate.evaluate(hp, ++seed));
  }
}
BENCHMARK(BM_SurrogateEvaluation);

}  // namespace

int main(int argc, char** argv) {
  print_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
