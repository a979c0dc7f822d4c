// perfbench: one workload of the dpho benchmark per invocation.
//
//   perfbench --workload hpo_paper|md_nnp|serve_mix --seed N --seconds S
//             --trace 0|1
//
// The untraced run (--trace 0) measures the end-to-end metrics.  The traced
// run (--trace 1) runs the same workload with the benchmark's span points
// recording, then the layer probes, prints the self-time reduction, the
// unexplained remainder and the tracing overhead against the untraced runs on
// record in this checkout, and reports the per-layer metrics.  Either way the
// last line of standard output is the JSON result.  Spans are written to
// .bench_build/traces/ at exit; each run's end-to-end numbers are appended to
// .bench_build/results/<workload>.jsonl.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "md/simulation.hpp"
#include "nn/simd.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

dpho::dp::TrainInput model_shape(double rcut, double rcut_smth) {
  dpho::dp::TrainInput input;
  input.descriptor.rcut = rcut;
  input.descriptor.rcut_smth = rcut_smth;
  input.descriptor.neuron = {8, 16};
  input.descriptor.axis_neuron = 4;
  input.descriptor.sel = 128;
  input.fitting.neuron = {24, 24};
  input.training.batch_size = 8;
  return input;
}

dpho::md::FrameDataset make_frames(std::uint64_t seed, std::size_t count) {
  dpho::md::SimulationConfig sim;
  sim.spec = dpho::md::SystemSpec::scaled_system(16);
  sim.num_frames = count;
  sim.equilibration_steps = 100;
  sim.sample_interval = 5;
  sim.seed = seed;
  return dpho::md::Simulation(sim).run();
}

DataDirs save_reference_data(const std::filesystem::path& dir, std::uint64_t seed) {
  dpho::md::FrameDataset frames = make_frames(seed, 32);
  dpho::util::Rng rng(seed);
  frames.shuffle(rng);
  const auto [train, valid] = frames.split(0.25);
  DataDirs dirs{dir / "train", dir / "valid"};
  std::filesystem::remove_all(dirs.train);
  std::filesystem::remove_all(dirs.valid);
  train.save(dirs.train);
  valid.save(dirs.valid);
  return dirs;
}

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

/// The key of a run record: the run length and the machine fingerprint
/// (which holds the library's source id), so that a traced run is compared
/// only with untraced runs of the same work on the same build.
std::string record_key(double seconds, const std::string& machine) {
  return "\"seconds\": " + json_number(seconds) + ", \"fingerprint\": \"" +
         machine + "\"";
}

/// The throughput_per_s values of earlier untraced runs of a workload in this
/// checkout whose records carry `record`.
std::vector<double> untraced_throughputs(const std::filesystem::path& file,
                                         const std::string& record) {
  std::vector<double> values;
  std::ifstream in(file);
  std::string line;
  const std::string key = "\"throughput_per_s\": {\"value\": ";
  while (std::getline(in, line)) {
    const std::size_t at = line.find(key);
    if (at != std::string::npos && line.find(record) != std::string::npos) {
      values.push_back(std::strtod(line.c_str() + at + key.size(), nullptr));
    }
  }
  return values;
}

/// Prints the self-time table of the traced run and its unexplained share:
/// the part of the root spans' wall time that no layer span covers.
double report_trace(const Tracer& tracer) {
  const std::vector<Span> spans = tracer.spans();
  const auto self = self_seconds(spans);
  const auto totals = span_totals(spans);
  double root_wall = 0.0, root_self = 0.0;
  std::set<std::string> roots;
  for (const Span& s : spans) {
    if (s.parent != 0) continue;
    root_wall += s.end - s.start;
    roots.insert(s.name);
  }
  std::printf("trace: %zu spans; self time by layer:\n", spans.size());
  for (const auto& [name, seconds] : self) {
    const bool root = roots.count(name) != 0;
    std::printf("  %-36s self %10.4f s  total %10.4f s  n=%zu%s\n", name.c_str(),
                seconds, totals.at(name).first, totals.at(name).second,
                root ? "  (root)" : "");
    if (root) root_self += seconds;
  }
  const double share = root_wall > 0.0 ? root_self / root_wall : 0.0;
  std::printf("trace: unexplained remainder %.4f s of %.4f s root wall "
              "(%.2f%%; stated margin 10%%: %s)\n",
              root_self, root_wall, 100.0 * share,
              share <= 0.10 ? "within" : "EXCEEDED");
  return share;
}

int run(const Args& args) {
  using Runner = std::function<Outcome(const Args&, Tracer&)>;
  const std::map<std::string, Runner> workloads = {
      {"hpo_paper", run_hpo_paper},
      {"md_nnp", run_md_nnp},
      {"serve_mix", run_serve_mix},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench: workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::string machine;
  for (const std::string& line : fingerprint(dpho::nn::simd::level_name())) {
    std::printf("fingerprint %s\n", line.c_str());
    machine += (machine.empty() ? "" : "; ") + line;
  }

  Tracer tracer(args.trace);
  Outcome outcome = it->second(args, tracer);
  std::printf("end-to-end (%s):\n", args.trace ? "traced run, not gated" : "gated");
  for (const Metric& m : outcome.end_to_end) print_metric(m, "  ");

  const std::filesystem::path results = build_dir() / "results";
  std::filesystem::create_directories(results);
  const std::filesystem::path history = results / (args.workload + ".jsonl");
  std::vector<Metric> reported = outcome.end_to_end;
  const std::string record = record_key(args.seconds, machine);
  if (args.trace) {
    const double unexplained = report_trace(tracer);
    std::printf("per-layer, from this workload's spans and registry:\n");
    for (const Metric& m : outcome.layers) print_metric(m, "  ");
    reported = run_probes(args);
    reported.push_back({"trace.unexplained_share", unexplained, "ratio"});
    const std::vector<double> untraced = untraced_throughputs(history, record);
    const double traced =
        std::find_if(outcome.end_to_end.begin(), outcome.end_to_end.end(),
                     [](const Metric& m) { return m.name == "throughput_per_s"; })
            ->value;
    if (untraced.empty()) {
      std::printf("trace: overhead unknown: no untraced run of %s at %g s on "
                  "this build on record\n", args.workload.c_str(), args.seconds);
    } else {
      const double base = median(untraced);
      std::printf("trace: overhead: throughput_per_s traced %.6g vs untraced "
                  "median %.6g (n=%zu): %+.2f%%\n",
                  traced, base, untraced.size(), 100.0 * (base - traced) / base);
    }
    std::filesystem::create_directories(build_dir() / "traces");
    tracer.write_json(build_dir() / "traces" /
                      (args.workload + "-seed" + std::to_string(args.seed) +
                       ".json"));
    std::printf("per-layer, from the probes (reported):\n");
    for (const Metric& m : reported) print_metric(m, "  ");
  } else {
    std::ofstream(history, std::ios::app)
        << "{\"seed\": " << args.seed << ", " << record
        << ", \"metrics\": " << metrics_json(outcome.end_to_end) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false", outcome.attempted,
              outcome.failed, metrics_json(reported).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || args.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
