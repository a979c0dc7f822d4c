#include "support.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <utility>

#include "moo/pareto.hpp"

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }

double tail_level(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    // Rounded so that 0.99 * 1000 leaves exactly ten samples, not 9.99...
    if (std::llround(static_cast<double>(n) * (1.0 - q) * 1e6) >= 10'000'000) {
      return q;
    }
  }
  return 0.0;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = median(samples);
  s.tail_q = tail_level(s.n);
  s.tail = s.tail_q > 0.0 ? quantile(samples, s.tail_q) : 0.0;
  return s;
}

std::string describe(const Summary& s, double scale, const std::string& unit) {
  char buf[160];
  if (s.tail_q > 0.0) {
    std::snprintf(buf, sizeof buf, "p50 %.4g %s, p%g %.4g %s (n=%zu)",
                  s.p50 * scale, unit.c_str(), s.tail_q * 100.0, s.tail * scale,
                  unit.c_str(), s.n);
  } else {
    std::snprintf(buf, sizeof buf, "p50 %.4g %s (n=%zu, no tail percentile)",
                  s.p50 * scale, unit.c_str(), s.n);
  }
  return buf;
}

// ----------------------------------------------------------------- spans --

std::uint64_t Tracer::record(const std::string& name, std::uint64_t parent,
                             double start, double end) {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, name, start, end});
  return id;
}

std::uint64_t Tracer::open(const std::string& name, std::uint64_t parent) {
  const double t = now_s();
  return record(name, parent, t, t);
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).end = t;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_json(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start\":%.9f,\"end\":%.9f}%s\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.name.c_str(),
                  s.start, s.end, i + 1 < all.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    std::vector<std::pair<double, double>> covered;
    for (const Span* c : children[s.id]) {
      const double lo = std::max(c->start, s.start);
      const double hi = std::min(c->end, s.end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_len = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) union_len += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) union_len += cur_hi - cur_lo;
    self[s.name] += std::max(0.0, (s.end - s.start) - union_len);
  }
  return self;
}

std::map<std::string, std::pair<double, std::size_t>> span_totals(
    const std::vector<Span>& spans) {
  std::map<std::string, std::pair<double, std::size_t>> totals;
  for (const Span& s : spans) {
    auto& t = totals[s.name];
    t.first += s.end - s.start;
    t.second += 1;
  }
  return totals;
}

// --------------------------------------------------- open-loop schedule --

std::vector<double> poisson_schedule(double rate, std::size_t count,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due(count);
  double t = 0.0;
  for (double& d : due) {
    t += gap(rng);
    d = t;
  }
  return due;
}

std::vector<double> due_latencies(const std::vector<Timed>& requests) {
  std::vector<double> out;
  for (const Timed& r : requests) {
    if (r.reply >= 0.0) out.push_back(r.reply - r.due);
  }
  return out;
}

std::vector<double> lateness(const std::vector<Timed>& requests) {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const Timed& r : requests) out.push_back(r.sent - r.due);
  return out;
}

// -------------------------------------------------------- hypervolume --

const std::vector<double> kHvReference = {1.0, 2.0};

double front_hypervolume(const std::vector<std::vector<double>>& fitness) {
  std::vector<std::vector<double>> finite;
  for (const auto& f : fitness) {
    if (f.size() >= 2 && f[0] < kHvReference[0] && f[1] < kHvReference[1]) {
      finite.push_back({f[0], f[1]});
    }
  }
  if (finite.empty()) return 0.0;
  std::vector<std::vector<double>> front;
  for (const std::size_t i : dpho::moo::pareto_front_indices(finite)) {
    front.push_back(finite[i]);
  }
  return dpho::moo::hypervolume_2d(front, kHvReference);
}

// ------------------------------------------------------------ results --

void Outcome::check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) correct = false;
}

void print_metric(const Metric& m, const char* prefix) {
  std::printf("%s%-36s = %.6g %s\n", prefix, m.name.c_str(), m.value,
              m.unit.c_str());
}

double peak_rss_mb(bool include_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (include_children) {
    rusage kids{};
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kb = std::max(kb, kids.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

std::vector<std::string> fingerprint(const std::string& simd_level) {
  std::vector<std::string> lines;
  lines.push_back("nproc " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  lines.push_back("simd " + simd_level);
#ifdef __VERSION__
  lines.push_back(std::string("compiler ") + __VERSION__);
#endif
#ifdef PERFBENCH_BUILD_TYPE
  lines.push_back(std::string("build_type ") + PERFBENCH_BUILD_TYPE);
#endif
  const char* source = std::getenv("PERFBENCH_SOURCE_ID");
  lines.push_back(std::string("source ") + (source ? source : "unknown"));
  std::string caches = "caches";
  const std::pair<const char*, int> levels[] = {
      {"L1d", _SC_LEVEL1_DCACHE_SIZE},
      {"L2", _SC_LEVEL2_CACHE_SIZE},
      {"L3", _SC_LEVEL3_CACHE_SIZE}};
  for (const auto& [name, key] : levels) {
    caches += std::string(" ") + name + "=" +
              std::to_string(::sysconf(key) / 1024) + "K";
  }
  lines.push_back(caches);
  return lines;
}

std::filesystem::path work_dir(const std::string& tag) {
  const std::filesystem::path dir = build_dir() / "work" /
                                    (tag + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::filesystem::path build_dir() {
  return std::filesystem::current_path() / ".bench_build";
}

}  // namespace perfbench
