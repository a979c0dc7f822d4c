// Layer probes of the traced run.  Every traced run, whatever its workload,
// runs the same probes on inputs made from its seed, so each per-layer
// metric of BENCHMARK.json is measured on every traced run:
//
//   * replay of the hpo_paper template: md::FrameDataset::load of both
//     directories, the dp::Trainer constructor, and Trainer::train() at 1 and
//     2 gradient threads (batch 8, and batch 4 = fuse_frames), with the
//     program's trainer.* and dp.kernels.* registry entries per step;
//   * the serve codec on 1-frame messages, ModelArchive::load, and
//     dp::Potential::evaluate on serve_mix's frames and most requested model;
//   * the catalog round trip on an idle serve::Server (framing and the poll
//     loop, no model work);
//   * dp::MdSession steps with the SIMD kernels off vs on (md_nnp's model on
//     2,050 atoms, the serial path).
//
// Models carry the workloads' fixed weights (kModelSeed); the seed makes only
// the frames and start states.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "dp/archive.hpp"
#include "dp/md_session.hpp"
#include "dp/model.hpp"
#include "dp/potential.hpp"
#include "dp/trainer.hpp"
#include "hpc/net/frame.hpp"
#include "md/integrator.hpp"
#include "md/system.hpp"
#include "nn/simd.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dpho;

constexpr std::size_t kReplaySteps = 6;
constexpr std::size_t kReps = 15;

double hist_mean(const char* name) {
  return obs::metrics()
      .histogram(name, obs::BucketLayout::timing_seconds())
      .snapshot()
      .mean();
}

double hist_sum(const char* name) {
  return obs::metrics()
      .histogram(name, obs::BucketLayout::timing_seconds())
      .snapshot()
      .sum();
}

/// The hpo_paper template at a mid-Table-1 genome (rcut 7.5 A).
dp::TrainInput replay_input(std::size_t batch) {
  dp::TrainInput input = model_shape(7.5, 3.0);
  input.learning_rate.start_lr = 1e-3;
  input.learning_rate.stop_lr = 1e-6;
  input.training.numb_steps = kReplaySteps;
  input.training.disp_freq = kReplaySteps;
  input.training.batch_size = batch;
  return input;
}

double train_seconds(const dp::TrainInput& input, const md::FrameDataset& train,
                     const md::FrameDataset& valid, std::size_t threads) {
  dp::TrainerOptions options;
  options.num_threads = threads;
  dp::Trainer trainer(input, train, valid, options);
  const double t0 = now_s();
  trainer.train();
  return now_s() - t0;
}

void replay_trainer(const Args& args, const std::filesystem::path& dir,
                    std::vector<Metric>& out) {
  const DataDirs dirs = save_reference_data(dir, args.seed);
  md::FrameDataset train, valid;
  const double load_s = median_time(3, [&] {
    train = md::FrameDataset::load(dirs.train);
    valid = md::FrameDataset::load(dirs.valid);
  });
  const dp::TrainInput input = replay_input(8);
  const double construct_s =
      median_time(3, [&] { dp::Trainer trainer(input, train, valid); });

  obs::metrics().reset();
  const double serial = train_seconds(input, train, valid, 1);
  const double steps = static_cast<double>(kReplaySteps);
  const double rows = static_cast<double>(
      obs::metrics()
          .histogram("trainer.validation_seconds", obs::BucketLayout::timing_seconds())
          .snapshot()
          .count);
  out.push_back({"md.dataset.load_s", load_s, "s"});
  out.push_back({"dp.trainer.construct_s", construct_s, "s"});
  out.push_back({"dp.trainer.grad_s", hist_mean("trainer.grad_seconds"), "s"});
  out.push_back({"dp.trainer.validation_s",
                 hist_sum("trainer.validation_seconds") / std::max(1.0, rows), "s"});
  out.push_back({"dp.kernels.primal_s", hist_sum("dp.kernels.primal_seconds") / steps, "s"});
  out.push_back({"dp.kernels.tangent_s", hist_sum("dp.kernels.tangent_seconds") / steps, "s"});
  out.push_back({"dp.kernels.pairs_per_step",
                 static_cast<double>(obs::metrics().counter("dp.kernels.pairs_total").value()) /
                     steps,
                 "count"});
  out.push_back({"hpc.thread_pool.train_speedup_2t",
                 serial / train_seconds(input, train, valid, 2), "ratio"});
  const dp::TrainInput small = replay_input(4);
  out.push_back({"hpc.thread_pool.train_speedup_2t_batch4",
                 train_seconds(small, train, valid, 1) /
                     train_seconds(small, train, valid, 2),
                 "ratio"});
}

void probe_serve(const Args& args, const std::filesystem::path& dir,
                 std::vector<Metric>& out) {
  // serve_mix's frames and archive; m0 is its most requested model.
  const md::FrameDataset frames = make_frames(args.seed, 24);
  build_serve_archive(dir / "archive", frames);
  const dp::ModelArchive archive = dp::ModelArchive::open(dir / "archive");
  const dp::Potential potential = archive.load("m0");

  std::vector<md::Frame> bare(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    bare[f].positions = frames.frame(f).positions;
    bare[f].box_length = frames.frame(f).box_length;
  }
  md::ForceEnergy result;
  std::size_t next = 0;
  const double evaluate_s = median_time(
      kReps, [&] { result = potential.evaluate(bare[next++ % bare.size()]); });
  // 1-frame messages of the last frame evaluated.
  const md::Frame& last = bare[(next - 1) % bare.size()];
  serve::EvalRequest request{1, "m0", true, {last}};
  serve::EvalReply reply{1, "m0", {result.energy}, {{}}};
  for (const md::Vec3& f : result.forces) {
    reply.forces[0].insert(reply.forces[0].end(), {f[0], f[1], f[2]});
  }
  std::string request_text, reply_text;
  const double encode_request_s = median_time(
      kReps, [&] { request_text = serve::encode_eval_request(request).dump(); });
  const double encode_reply_s =
      median_time(kReps, [&] { reply_text = serve::encode_eval_reply(reply).dump(); });
  serve::EvalReply decoded;
  const double decode_reply_s = median_time(
      kReps, [&] { decoded = serve::decode_eval_reply(util::Json::parse(reply_text)); });
  const double load_s = median_time(5, [&] { (void)archive.load("m0"); });

  serve::Server server(serve::ServerOptions{
      .archive_dir = dir / "archive", .cache_capacity = 2, .threads = 2});
  server.start();
  const int fd = hpc::net::connect_loopback(server.port());
  const std::string catalog = serve::encode_catalog_request(1).dump();
  const double rtt_s = median_time(200, [&] {
    hpc::net::write_frame(fd, catalog);
    (void)hpc::net::read_frame(fd);
  });
  ::close(fd);
  server.stop();

  out.push_back({"serve.protocol.encode_request_ms", 1e3 * encode_request_s, "ms"});
  out.push_back({"serve.protocol.encode_reply_ms", 1e3 * encode_reply_s, "ms"});
  out.push_back({"serve.protocol.decode_reply_ms", 1e3 * decode_reply_s, "ms"});
  out.push_back({"dp.archive.load_ms", 1e3 * load_s, "ms"});
  out.push_back({"dp.potential.evaluate_ms", 1e3 * evaluate_s, "ms"});
  out.push_back({"hpc.net.catalog_rtt_ms", 1e3 * rtt_s, "ms"});
}

/// Median seconds of `steps` Verlet steps from `start` on the serial path.
double md_step_p50(const std::shared_ptr<const dp::DeepPotModel>& model,
                   const md::SystemState& start, std::size_t steps) {
  dp::MdSession session(model);
  md::SystemState state = start;
  std::vector<md::Vec3> forces(state.size());
  session.compute(state, forces);
  const md::VelocityVerlet integrator(1.0);
  std::vector<double> t;
  for (std::size_t k = 0; k < steps; ++k) {
    t.push_back(median_time(1, [&] { integrator.step(state, session, forces); }));
  }
  return median(t);
}

void probe_simd(const Args& args, std::vector<Metric>& out) {
  util::Rng rng(args.seed);
  const md::SystemState start =
      md::SystemSpec::scaled_system(205).create_initial_state(498.0, rng);
  const auto model = std::make_shared<const dp::DeepPotModel>(
      model_shape(6.0, 3.0), start.types, 0.0, kModelSeed);  // md_nnp's model
  const bool was = nn::simd::enabled();
  const double on = md_step_p50(model, start, 5);
  nn::simd::set_enabled(false);
  const double off = md_step_p50(model, start, 5);
  nn::simd::set_enabled(was);
  out.push_back({"nn.simd.md_gain", off / on, "ratio"});
}

}  // namespace

std::vector<Metric> run_probes(const Args& args) {
  const std::filesystem::path dir = work_dir("probes");
  const double t0 = now_s();
  std::vector<Metric> out;
  replay_trainer(args, dir, out);
  probe_serve(args, dir, out);
  probe_simd(args, out);
  std::printf("probes: %.2f s\n", now_s() - t0);
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace perfbench
