// dpho_sched multi-tenant throughput/fairness: an in-process Scheduler
// driven to completion across a tenant-count x pool-size sweep, with weights
// alternating 1/2 so the fair-share mux actually has shares to balance.
//
// Emits BENCH_sched.json:
//   {"bench": "sched", "evals_per_run": E,
//    "results": [{"runs": R, "workers": W, "weights": [...],
//                 "completions": C, "evals_per_sec": X, "steps": S,
//                 "forwards": F, "share_jitter": J}, ...],
//    "metrics": {"schema": "dpho.metrics.v1", ...}}
//
// `share_jitter` is the fairness witness: the max absolute deviation, over
// the mux forward_log(), between each tenant's observed forward share and
// its weight-proportional share.  It is reported, not pinned -- tenants
// drain at different times, so the tail of the log legitimately skews --
// but it must stay a valid share deviation (within [0, 1]).
//
// The `metrics` block is the process-wide obs registry snapshot, so the
// sched.* counters/gauges land in the artifact exactly as a daemon run
// writes them to metrics_summary.json.
//
// Usage: bench_sched [--smoke] [--out FILE]
//   --smoke  reduced sweep (CI-friendly); also re-reads the artifact,
//            validates the schema and the sched.* instrumentation, and
//            exits nonzero on any violation.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sched/scheduler.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace {

using namespace dpho;

struct SweepPoint {
  std::size_t runs = 1;
  std::size_t workers = 1;
  std::vector<std::size_t> weights;
  std::size_t completions = 0;
  double evals_per_sec = 0.0;
  std::size_t steps = 0;
  std::size_t forwards = 0;
  double share_jitter = 0.0;
};

sched::RunSpec tenant_spec(std::size_t index, std::size_t evals,
                           std::size_t weight) {
  sched::RunSpec spec;
  spec.name = "tenant-" + std::to_string(index);
  spec.seed = 100 + index;
  spec.population_size = 6;
  spec.num_workers = 3;
  spec.total_evaluations = evals;
  spec.weight = weight;
  return spec;
}

/// One scheduler configuration, driven from submit to idle on the simulated
/// shared pool.
SweepPoint measure(const core::Evaluator& evaluator, std::size_t runs,
                   std::size_t workers, std::size_t evals) {
  util::TempDir dir("bench-sched");
  sched::SchedulerOptions options;
  options.state_dir = dir.path();
  options.max_runs = runs;
  options.pool_workers = workers;
  sched::Scheduler scheduler(options, evaluator);

  SweepPoint point;
  point.runs = runs;
  point.workers = workers;
  for (std::size_t i = 0; i < runs; ++i) {
    point.weights.push_back(1 + i % 2);
    scheduler.submit(tenant_spec(i, evals, point.weights.back()));
  }

  const auto started = std::chrono::steady_clock::now();
  while (!scheduler.idle()) {
    scheduler.step(0.0);
    if (++point.steps > 2000000) {
      std::fprintf(stderr, "bench_sched: scheduler failed to drain\n");
      std::exit(1);
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  for (std::size_t i = 0; i < runs; ++i) {
    const sched::RunStatus status =
        scheduler.status("tenant-" + std::to_string(i));
    if (status.phase != sched::RunPhase::kDone) {
      std::fprintf(stderr, "bench_sched: tenant-%zu did not finish\n", i);
      std::exit(1);
    }
    point.completions += status.completions;
  }
  point.evals_per_sec =
      static_cast<double>(point.completions) / std::max(elapsed, 1e-9);

  // Fairness witness: observed forward share per slot vs weight share.
  const std::vector<std::size_t>& log = scheduler.mux().forward_log();
  point.forwards = log.size();
  std::vector<std::size_t> per_slot(runs, 0);
  for (const std::size_t slot : log) {
    if (slot < runs) ++per_slot[slot];
  }
  std::size_t weight_sum = 0;
  for (const std::size_t w : point.weights) weight_sum += w;
  for (std::size_t i = 0; i < runs && !log.empty(); ++i) {
    const double observed = static_cast<double>(per_slot[i]) /
                            static_cast<double>(log.size());
    const double expected = static_cast<double>(point.weights[i]) /
                            static_cast<double>(weight_sum);
    point.share_jitter =
        std::max(point.share_jitter, std::abs(observed - expected));
  }
  return point;
}

bool validate_schema(const std::filesystem::path& path) {
  const util::Json doc = util::Json::parse(util::read_file(path));
  if (!doc.is_object()) return false;
  for (const char* key : {"bench", "evals_per_run", "results", "metrics"}) {
    if (!doc.contains(key)) {
      std::fprintf(stderr, "BENCH_sched.json: missing key %s\n", key);
      return false;
    }
  }
  if (!doc.at("results").is_array() || doc.at("results").as_array().empty()) {
    std::fprintf(stderr, "BENCH_sched.json: empty results\n");
    return false;
  }
  for (const util::Json& entry : doc.at("results").as_array()) {
    if (!entry.is_object()) return false;
    for (const char* key : {"runs", "workers", "weights", "completions",
                            "evals_per_sec", "steps", "forwards",
                            "share_jitter"}) {
      if (!entry.contains(key)) {
        std::fprintf(stderr, "BENCH_sched.json: result missing key %s\n", key);
        return false;
      }
    }
    if (entry.number_or("evals_per_sec", 0.0) <= 0.0) {
      std::fprintf(stderr, "BENCH_sched.json: non-positive throughput\n");
      return false;
    }
    const double jitter = entry.number_or("share_jitter", -1.0);
    if (jitter < 0.0 || jitter > 1.0) {
      std::fprintf(stderr, "BENCH_sched.json: share_jitter %.3f is not a"
                           " share deviation\n", jitter);
      return false;
    }
  }
  if (!obs::is_metrics_document(doc.at("metrics"))) {
    std::fprintf(stderr, "BENCH_sched.json: metrics block is not a valid"
                         " dpho.metrics.v1 document\n");
    return false;
  }
  // The scheduler's own instrumentation must have seen the whole sweep.
  const util::Json& counters =
      doc.at("metrics").at("deterministic").at("counters");
  if (counters.number_or("sched.runs_submitted_total", 0.0) <= 0.0 ||
      counters.number_or("sched.runs_completed_total", 0.0) !=
          counters.number_or("sched.runs_submitted_total", 0.0)) {
    std::fprintf(stderr, "BENCH_sched.json: sched.* counters do not account"
                         " for every run\n");
    return false;
  }
  if (counters.number_or("sched.mux.forwards_total", 0.0) <
      counters.number_or("sched.completions_total", 1.0)) {
    std::fprintf(stderr, "BENCH_sched.json: fewer mux forwards than"
                         " completions\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::filesystem::path out = "BENCH_sched.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  const std::size_t evals = smoke ? 12 : 30;
  const std::vector<std::size_t> run_counts =
      smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 2, 4};
  const std::vector<std::size_t> pool_sizes =
      smoke ? std::vector<std::size_t>{3} : std::vector<std::size_t>{2, 3, 6};

  try {
    const auto evaluator = core::make_evaluator(core::EvalBackendConfig{});

    std::vector<SweepPoint> points;
    for (const std::size_t workers : pool_sizes) {
      for (const std::size_t runs : run_counts) {
        points.push_back(measure(*evaluator, runs, workers, evals));
        const SweepPoint& p = points.back();
        std::printf("bench_sched: runs=%zu workers=%zu  %8.0f evals/s"
                    "  forwards=%4zu  share_jitter=%.3f\n",
                    p.runs, p.workers, p.evals_per_sec, p.forwards,
                    p.share_jitter);
      }
    }

    util::Json doc;
    doc["bench"] = std::string("sched");
    doc["evals_per_run"] = evals;
    util::JsonArray results;
    for (const SweepPoint& p : points) {
      util::Json entry;
      entry["runs"] = p.runs;
      entry["workers"] = p.workers;
      util::JsonArray weights;
      for (const std::size_t w : p.weights) weights.emplace_back(w);
      entry["weights"] = std::move(weights);
      entry["completions"] = p.completions;
      entry["evals_per_sec"] = p.evals_per_sec;
      entry["steps"] = p.steps;
      entry["forwards"] = p.forwards;
      entry["share_jitter"] = p.share_jitter;
      results.push_back(std::move(entry));
    }
    doc["results"] = std::move(results);
    doc["metrics"] = obs::metrics().to_json();
    util::write_file(out, doc.dump(2) + "\n");
    std::printf("bench_sched: wrote %s\n", out.string().c_str());

    if (smoke && !validate_schema(out)) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_sched: %s\n", e.what());
    return 1;
  }
}
