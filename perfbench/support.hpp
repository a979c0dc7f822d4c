// Shared helpers of the dpho benchmark: clocks, the percentile rule, the
// in-memory span buffer and its self-time reduction, open-loop schedules,
// the fixed hypervolume reference point, fingerprinting and the result line.
//
// Nothing here touches the library's internals; the workloads reach dpho only
// through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- clocks --

/// Seconds on the steady clock since the first call in this process.
double now_s();

// ------------------------------------------------------ percentile rule --

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 when empty.
double quantile(std::vector<double> samples, double q);

/// The highest of 0.999 / 0.99 / 0.95 / 0.9 / 0.75 / 0.5 that leaves at least
/// ten samples beyond it (n * (1 - q) >= 10); 0 when even the median does not.
double tail_level(std::size_t n);

/// A timing population as it is reported: count, median and the tail at the
/// highest qualifying percentile.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // 0 when no percentile qualifies
  double tail = 0.0;
};
Summary summarize(const std::vector<double>& samples);

/// "p50 1.23 ms, p99 4.56 ms (n=1000)" in `unit` after scaling by `scale`.
std::string describe(const Summary& s, double scale, const std::string& unit);

double median(const std::vector<double>& samples);

// ----------------------------------------------------------------- spans --

/// One timed interval at a layer boundary.  `parent` is 0 for a root.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start = 0.0;  // now_s() seconds
  double end = 0.0;
};

/// In-memory span buffer; disabled buffers record nothing and return id 0.
/// Thread-safe.  Spans are written out only by write_json, at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint64_t record(const std::string& name, std::uint64_t parent,
                       double start, double end);
  /// Opens a span at now_s(); close() sets its end.
  std::uint64_t open(const std::string& name, std::uint64_t parent = 0);
  void close(std::uint64_t id);
  std::vector<Span> spans() const;
  void write_json(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per-name self time: each span's duration minus the part of its interval
/// covered by its children (overlapping children are merged first, and
/// children are clipped to the parent).
std::map<std::string, double> self_seconds(const std::vector<Span>& spans);

/// Per-name total duration and span count.
std::map<std::string, std::pair<double, std::size_t>> span_totals(
    const std::vector<Span>& spans);

// --------------------------------------------------- open-loop schedule --

/// `count` Poisson arrival offsets (seconds from phase start) at `rate`/s.
std::vector<double> poisson_schedule(double rate, std::size_t count,
                                     std::uint64_t seed);

/// One open-loop request as the generator saw it (all now_s() seconds;
/// reply < 0 when no reply arrived).
struct Timed {
  double due = 0.0;
  double sent = 0.0;
  double reply = -1.0;
};
/// Latency from due time to reply, for answered requests only.
std::vector<double> due_latencies(const std::vector<Timed>& requests);
/// How late the generator sent each request (sent - due).
std::vector<double> lateness(const std::vector<Timed>& requests);

// -------------------------------------------------------- hypervolume --

/// The fixed reference point (validation energy RMSE in eV/atom, force RMSE
/// in eV/A): both are minimized, and a point must dominate it to count.
extern const std::vector<double> kHvReference;

/// Hypervolume of the non-dominated finite points of `fitness` that dominate
/// kHvReference (failed evaluations carry MAXINT and are ignored).
double front_hypervolume(const std::vector<std::vector<double>>& fitness);

// ------------------------------------------------------------ results --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;  // the generic slots gated by BENCHMARK.json
  std::vector<Metric> layers;      // per-layer metrics of the traced run
  /// Fails the run's correctness with a printed reason.
  void check(bool ok, const std::string& what);
};

/// Prints a metric as a human-readable "name = value unit" line.
void print_metric(const Metric& m, const char* prefix = "");

/// Peak resident set of this process (and, with children, of its largest
/// reaped child) in MB.
double peak_rss_mb(bool include_children);

/// Machine/build fingerprint lines (nproc, SIMD level, compiler, build type,
/// source id, cache sizes).
std::vector<std::string> fingerprint(const std::string& simd_level);

/// The benchmark's working directory inside the checkout:
/// .bench_build/work/<tag>-<pid>, created fresh.
std::filesystem::path work_dir(const std::string& tag);

/// .bench_build/ under the working directory (the checkout root): the build
/// tree, with dp_train and dpho_worker in its dpho/ subtree.
std::filesystem::path build_dir();

/// Median of `reps` timed repetitions of `fn` (seconds).
template <typename Fn>
double median_time(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const double start = now_s();
    fn();
    t.push_back(now_s() - start);
  }
  return median(t);
}

}  // namespace perfbench
