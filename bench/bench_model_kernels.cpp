// Tape-vs-analytic gradient kernel throughput for DeepPot-SE training.
//
// Measures single-thread per-frame loss-gradient evaluations per second
// (energy + force loss, full parameter gradient including the second-order
// force term) for the scalar-tape oracle and the analytic fused kernels
// (dp/fast_graph.hpp), across descriptor/fitting sizes from test-tiny up to
// the paper's default architecture.  A tape step includes the frame's
// neighbor-list build (the oracle takes frames only); an analytic step starts
// from a prebuilt FrameGeometry, as training does.
//
// Emits BENCH_kernels.json:
//   {"bench": "model_kernels",
//    "step_definition": "one per-frame loss gradient (energy+forces)",
//    "results": [{"name": ..., "sel": ..., "neuron": [...], "axis_neuron": ...,
//                 "fitting_neuron": [...], "atoms": ..., "pairs": ...,
//                 "params": ..., "tape_steps_per_sec": ...,
//                 "analytic_steps_per_sec": ..., "speedup": ...}, ...],
//    "simd_matrix": {"config": ..., "simd_available": ..., "simd_level": ...,
//                    "fuse_frames": ..., "single_thread_simd_speedup": ...,
//                    "entries": [{"simd": "on"|"off", "threads": ...,
//                                 "frames_per_sec": ...}, ...]},
//    "metrics": {"schema": "dpho.metrics.v1", ...}}
//
// The simd_matrix section measures the fused multi-frame gradient path
// (loss_and_grad_fused over groups, parallel over a thread pool -- the exact
// shape the trainer runs) under SIMD on/off x threads {1,2,4,8}, on the
// paper-default architecture (the `small` config under --smoke).  When the
// host lacks AVX2/FMA the "on" rows fall back to scalar dispatch and the
// recorded speedup is ~1.
//
// The metrics block carries the dp.kernels.* instrumentation (primal/tangent
// pass timers, frame/pair counters) recorded by the analytic runs, so the
// kernel timing sections land in the same dpho.metrics.v1 document that
// training runs emit.
//
// Each config first cross-checks that the two engines agree on the loss value
// (relative 1e-6); a throughput number for a wrong gradient is worse than
// none, so disagreement exits nonzero.
//
// Usage: bench_model_kernels [--smoke] [--out FILE]
//   --smoke  reduced scale (CI-friendly); also self-validates the JSON
//            schema -- including the presence of populated dp.kernels timing
//            sections -- and exits nonzero on any violation.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dp/fast_graph.hpp"
#include "dp/loss.hpp"
#include "dp/model.hpp"
#include "hpc/thread_pool.hpp"
#include "md/simulation.hpp"
#include "nn/schedule.hpp"
#include "nn/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace {

using namespace dpho;
using Clock = std::chrono::steady_clock;

struct KernelConfig {
  std::string name;
  std::size_t sel = 24;
  std::vector<std::size_t> neuron;
  std::size_t axis_neuron = 2;
  std::vector<std::size_t> fitting;
};

struct KernelResult {
  KernelConfig config;
  std::size_t atoms = 0;
  std::size_t pairs = 0;
  std::size_t params = 0;
  double tape_steps_per_sec = 0.0;
  double analytic_steps_per_sec = 0.0;
  double speedup = 0.0;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Time-boxed throughput: repeat `step` round-robin over the frames until the
/// budget elapses (at least two full sweeps), return steps/sec.
template <typename Step>
double measure(std::size_t frames, double budget_seconds, Step&& step) {
  // Warm-up sweep: first calls size arenas / grow tape storage.
  for (std::size_t f = 0; f < frames; ++f) step(f);
  std::size_t steps = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t f = 0; f < frames; ++f) step(f);
    steps += frames;
    elapsed = seconds_since(start);
  } while (elapsed < budget_seconds || steps < 2 * frames);
  return static_cast<double>(steps) / elapsed;
}

struct MatrixEntry {
  bool simd_on = false;
  std::size_t threads = 0;
  double frames_per_sec = 0.0;
};

/// Fused-path throughput at one (simd, threads) point: repeats fused
/// loss_and_grad_fused sweeps over `targets` in fixed groups of
/// `fuse_frames`, parallel over a T-thread pool -- the trainer's exact
/// gradient shape -- and returns frame gradients per second.
double measure_fused(const dp::FastGraph& fast, std::size_t num_params,
                     const std::vector<dp::FrameTarget>& targets,
                     const dp::LossWeights& weights, std::size_t fuse_frames,
                     std::size_t threads, double budget_seconds) {
  const std::size_t num_groups =
      (targets.size() + fuse_frames - 1) / fuse_frames;
  std::vector<std::vector<double>> group_grads(num_groups);
  std::vector<double> losses(targets.size());
  std::unique_ptr<hpc::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<hpc::ThreadPool>(threads);

  const auto run_group = [&](std::size_t g) {
    thread_local dp::FastWorkspace workspace;  // the trainer's per-thread arena
    const std::size_t begin = g * fuse_frames;
    const std::size_t count = std::min(fuse_frames, targets.size() - begin);
    group_grads[g].resize(num_params);
    fast.loss_and_grad_fused(
        std::span<const dp::FrameTarget>(targets).subspan(begin, count),
        weights, workspace, group_grads[g],
        std::span<double>(losses).subspan(begin, count));
  };
  const auto sweep = [&] {
    if (!pool || num_groups <= 1) {
      for (std::size_t g = 0; g < num_groups; ++g) run_group(g);
    } else {
      pool->parallel_for(num_groups, run_group);
    }
  };

  sweep();  // warm-up: size every worker arena
  std::size_t frames_done = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    sweep();
    frames_done += targets.size();
    elapsed = seconds_since(start);
  } while (elapsed < budget_seconds || frames_done < 2 * targets.size());
  return static_cast<double>(frames_done) / elapsed;
}

bool validate_schema(const std::filesystem::path& path) {
  const util::Json doc = util::Json::parse(util::read_file(path));
  if (!doc.is_object()) return false;
  for (const char* key :
       {"bench", "step_definition", "results", "simd_matrix", "metrics"}) {
    if (!doc.contains(key)) {
      std::fprintf(stderr, "BENCH_kernels.json: missing key %s\n", key);
      return false;
    }
  }
  const util::Json& matrix = doc.at("simd_matrix");
  for (const char* key : {"config", "simd_available", "simd_level",
                          "fuse_frames", "single_thread_simd_speedup",
                          "entries"}) {
    if (!matrix.contains(key)) {
      std::fprintf(stderr, "BENCH_kernels.json: simd_matrix missing key %s\n",
                   key);
      return false;
    }
  }
  // 2 simd states x threads {1,2,4,8}, every throughput positive.
  if (!matrix.at("entries").is_array() ||
      matrix.at("entries").as_array().size() != 8) {
    std::fprintf(stderr, "BENCH_kernels.json: simd_matrix must have 8 rows\n");
    return false;
  }
  for (const util::Json& row : matrix.at("entries").as_array()) {
    for (const char* key : {"simd", "threads", "frames_per_sec"}) {
      if (!row.contains(key)) {
        std::fprintf(stderr,
                     "BENCH_kernels.json: simd_matrix row missing key %s\n",
                     key);
        return false;
      }
    }
    if (row.number_or("frames_per_sec", 0.0) <= 0.0) {
      std::fprintf(stderr,
                   "BENCH_kernels.json: non-positive simd_matrix throughput\n");
      return false;
    }
  }
  if (matrix.number_or("single_thread_simd_speedup", 0.0) <= 0.0) {
    std::fprintf(stderr,
                 "BENCH_kernels.json: missing single-thread simd speedup\n");
    return false;
  }
  if (!doc.at("results").is_array() || doc.at("results").as_array().empty()) {
    return false;
  }
  for (const util::Json& entry : doc.at("results").as_array()) {
    if (!entry.is_object()) return false;
    for (const char* key :
         {"name", "sel", "neuron", "axis_neuron", "fitting_neuron", "atoms",
          "pairs", "params", "tape_steps_per_sec", "analytic_steps_per_sec",
          "speedup"}) {
      if (!entry.contains(key)) {
        std::fprintf(stderr, "BENCH_kernels.json: result missing key %s\n", key);
        return false;
      }
    }
  }
  if (!obs::is_metrics_document(doc.at("metrics"))) {
    std::fprintf(stderr, "BENCH_kernels.json: metrics block is not a valid"
                         " dpho.metrics.v1 document\n");
    return false;
  }
  // The analytic runs must have populated the kernel timing sections.
  const util::Json& histograms = doc.at("metrics").at("timing").at("histograms");
  for (const char* name : {"dp.kernels.primal_seconds", "dp.kernels.tangent_seconds"}) {
    if (!histograms.contains(name) ||
        histograms.at(name).number_or("count", 0.0) <= 0.0) {
      std::fprintf(stderr, "BENCH_kernels.json: timing histogram %s missing"
                           " or empty\n", name);
      return false;
    }
  }
  const util::Json& counters = doc.at("metrics").at("deterministic").at("counters");
  for (const char* name : {"dp.kernels.frames_total", "dp.kernels.pairs_total"}) {
    if (counters.number_or(name, 0.0) <= 0.0) {
      std::fprintf(stderr, "BENCH_kernels.json: counter %s missing or zero\n", name);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::filesystem::path out = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::scaled_system(1);  // 10 atoms
  sim.num_frames = 4;
  sim.equilibration_steps = 40;
  sim.seed = 23;
  const md::LabelledData data = md::generate_reference_data(sim, 0.25);
  const std::size_t num_frames = data.train.size();
  const std::size_t atoms = data.train.frame(0).positions.size();

  std::vector<KernelConfig> configs = {
      {"tiny", 24, {4, 8}, 2, {8}},
      {"small", 32, {8, 16}, 4, {24, 24}},
  };
  if (!smoke) {
    configs.push_back({"medium", 48, {16, 32}, 4, {60, 60}});
    // The paper's default architecture (section 2.2.1): this is the size the
    // HPO workflow actually trains at, and the headline speedup row.
    configs.push_back({"paper_default", 64, {25, 50, 100}, 4, {240, 240, 240}});
  }
  const double budget = smoke ? 0.05 : 0.5;
  const dp::LossWeights weights{/*pref_e=*/1.0, /*pref_f=*/10.0};
  const dp::DeepmdLoss loss(dp::LossConfig{},
                            nn::ExponentialDecay(0.01, 0.001, 100, 10));

  obs::metrics().reset();
  std::printf("model kernels: %zu atoms, %zu frames, budget %.2fs per engine\n",
              atoms, num_frames, budget);

  std::vector<KernelResult> results;
  for (const KernelConfig& config : configs) {
    dp::TrainInput input;
    input.descriptor.rcut = 3.2;  // must fit under half the small MD box edge
    input.descriptor.rcut_smth = 2.0;
    input.descriptor.neuron = config.neuron;
    input.descriptor.axis_neuron = config.axis_neuron;
    input.descriptor.sel = config.sel;
    input.fitting.neuron = config.fitting;
    const dp::DeepPotModel model(input, data.train.types(), 0.0, 7);

    std::vector<dp::FrameGeometry> geometries(num_frames);
    for (std::size_t f = 0; f < num_frames; ++f) {
      dp::build_frame_geometry(model, data.train.frame(f), geometries[f]);
    }

    const dp::FastGraph fast(model);
    dp::FastWorkspace workspace;
    std::vector<double> grad(model.num_params());
    ad::Tape tape;

    const auto tape_step = [&](std::size_t f) {
      const md::Frame& frame = data.train.frame(f);
      tape.reset();
      const dp::DeepPotModel::FrameGraph graph = model.build_graph(tape, frame);
      const ad::Var frame_loss =
          loss.build(tape, graph.energy, frame.energy, graph.forces,
                     frame.forces, frame.positions.size(), weights);
      const std::vector<ad::Var> dloss = tape.gradient(frame_loss, graph.params);
      return frame_loss.value() + dloss.front().value() * 0.0;  // keep it live
    };
    const auto analytic_step = [&](std::size_t f) {
      const md::Frame& frame = data.train.frame(f);
      return fast.loss_and_grad(geometries[f], frame.energy, frame.forces,
                                weights, workspace, grad);
    };

    // Cross-check before timing: same loss from both engines on every frame.
    for (std::size_t f = 0; f < num_frames; ++f) {
      const double tape_loss = tape_step(f);
      const double analytic_loss = analytic_step(f);
      const double tolerance = 1e-6 * std::max(1.0, std::abs(tape_loss));
      if (std::abs(tape_loss - analytic_loss) > tolerance) {
        std::fprintf(stderr,
                     "%s frame %zu: engines disagree (tape %.17g analytic"
                     " %.17g)\n",
                     config.name.c_str(), f, tape_loss, analytic_loss);
        return 1;
      }
    }

    KernelResult result;
    result.config = config;
    result.atoms = atoms;
    result.pairs = geometries[0].size();
    result.params = model.num_params();
    result.tape_steps_per_sec = measure(num_frames, budget, tape_step);
    result.analytic_steps_per_sec = measure(num_frames, budget, analytic_step);
    result.speedup = result.analytic_steps_per_sec / result.tape_steps_per_sec;
    std::printf("  %-13s sel %3zu params %7zu: tape %8.1f/s  analytic"
                " %9.1f/s  speedup %5.1fx\n",
                config.name.c_str(), config.sel, result.params,
                result.tape_steps_per_sec, result.analytic_steps_per_sec,
                result.speedup);
    results.push_back(result);
  }

  // SIMD-on/off x threads matrix on the fused multi-frame gradient path, at
  // the largest configured shape (paper_default, or `small` under --smoke).
  const KernelConfig& matrix_config = configs.back();
  util::JsonObject simd_matrix;
  {
    dp::TrainInput input;
    input.descriptor.rcut = 3.2;
    input.descriptor.rcut_smth = 2.0;
    input.descriptor.neuron = matrix_config.neuron;
    input.descriptor.axis_neuron = matrix_config.axis_neuron;
    input.descriptor.sel = matrix_config.sel;
    input.fitting.neuron = matrix_config.fitting;
    const dp::DeepPotModel model(input, data.train.types(), 0.0, 7);
    std::vector<dp::FrameGeometry> geometries(num_frames);
    for (std::size_t f = 0; f < num_frames; ++f) {
      dp::build_frame_geometry(model, data.train.frame(f), geometries[f]);
    }
    const dp::FastGraph fast(model);
    // Replicate the frames round-robin so 8 workers see 8 fused groups.
    constexpr std::size_t kFuse = 4;
    constexpr std::size_t kTargets = 32;
    std::vector<dp::FrameTarget> targets(kTargets);
    for (std::size_t i = 0; i < kTargets; ++i) {
      const std::size_t f = i % num_frames;
      const md::Frame& frame = data.train.frame(f);
      targets[i] = dp::FrameTarget{&geometries[f], frame.energy, frame.forces};
    }

    const double matrix_budget = smoke ? 0.05 : 0.3;
    const bool was_enabled = nn::simd::enabled();
    std::printf("simd matrix (%s, fuse %zu, %zu frame targets):\n",
                matrix_config.name.c_str(), kFuse, kTargets);
    std::vector<MatrixEntry> matrix;
    for (const bool simd_on : {true, false}) {
      nn::simd::set_enabled(simd_on);
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        MatrixEntry entry;
        entry.simd_on = simd_on;
        entry.threads = threads;
        entry.frames_per_sec =
            measure_fused(fast, model.num_params(), targets, weights, kFuse,
                          threads, matrix_budget);
        std::printf("  simd %-3s threads %zu: %9.1f frame-grads/s\n",
                    simd_on ? "on" : "off", threads, entry.frames_per_sec);
        matrix.push_back(entry);
      }
    }
    nn::simd::set_enabled(was_enabled);

    double on_1t = 0.0;
    double off_1t = 0.0;
    for (const MatrixEntry& entry : matrix) {
      if (entry.threads != 1) continue;
      (entry.simd_on ? on_1t : off_1t) = entry.frames_per_sec;
    }
    const double simd_speedup_1t = on_1t / off_1t;
    std::printf("  single-thread simd speedup: %.2fx (%s)\n", simd_speedup_1t,
                nn::simd::available() ? "avx2-fma vs scalar"
                                      : "scalar vs scalar, no vector table");

    simd_matrix["config"] = matrix_config.name;
    simd_matrix["simd_available"] = nn::simd::available();
    simd_matrix["simd_level"] =
        nn::simd::available() ? "avx2-fma" : "scalar";
    simd_matrix["fuse_frames"] = kFuse;
    simd_matrix["frame_targets"] = kTargets;
    simd_matrix["single_thread_simd_speedup"] = simd_speedup_1t;
    util::JsonArray matrix_entries;
    for (const MatrixEntry& entry : matrix) {
      util::JsonObject row;
      row["simd"] = entry.simd_on ? "on" : "off";
      row["threads"] = entry.threads;
      row["frames_per_sec"] = entry.frames_per_sec;
      matrix_entries.push_back(util::Json(std::move(row)));
    }
    simd_matrix["entries"] = util::Json(std::move(matrix_entries));
  }

  util::JsonObject doc;
  doc["bench"] = "model_kernels";
  doc["step_definition"] = "one per-frame loss gradient (energy+forces)";
  doc["simd_matrix"] = util::Json(std::move(simd_matrix));
  util::JsonArray entries;
  for (const KernelResult& result : results) {
    util::JsonObject entry;
    entry["name"] = result.config.name;
    entry["sel"] = result.config.sel;
    util::JsonArray neuron;
    for (const std::size_t n : result.config.neuron) neuron.push_back(util::Json(n));
    entry["neuron"] = util::Json(std::move(neuron));
    entry["axis_neuron"] = result.config.axis_neuron;
    util::JsonArray fitting;
    for (const std::size_t n : result.config.fitting) fitting.push_back(util::Json(n));
    entry["fitting_neuron"] = util::Json(std::move(fitting));
    entry["atoms"] = result.atoms;
    entry["pairs"] = result.pairs;
    entry["params"] = result.params;
    entry["tape_steps_per_sec"] = result.tape_steps_per_sec;
    entry["analytic_steps_per_sec"] = result.analytic_steps_per_sec;
    entry["speedup"] = result.speedup;
    entries.push_back(util::Json(std::move(entry)));
  }
  doc["results"] = util::Json(std::move(entries));
  doc["metrics"] = obs::metrics().to_json();
  util::write_file(out, util::Json(std::move(doc)).dump(2) + "\n");
  std::printf("wrote %s\n", out.string().c_str());

  if (smoke && !validate_schema(out)) return 1;
  return 0;
}
