// Self-tests of the benchmark's own helpers: the percentile rule, due-time
// latency and lateness on a synthetic schedule, self time on a synthetic
// span tree, and the fixed hypervolume reference point.  run.py runs this
// before every workload; a failure stops the benchmark.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "support.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("perfbench_selftest: FAIL %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void percentile_rule() {
  using perfbench::tail_level;
  expect(tail_level(10000) == 0.999, "10000 samples report p99.9");
  expect(tail_level(1000) == 0.99, "1000 samples report p99 (ten beyond)");
  expect(tail_level(999) == 0.95, "999 samples fall back to p95");
  expect(tail_level(400) == 0.95, "400 samples report p95");
  expect(tail_level(100) == 0.9, "100 samples report p90");
  expect(tail_level(40) == 0.75, "40 samples report p75");
  expect(tail_level(20) == 0.5, "20 samples report the median");
  expect(tail_level(19) == 0.0, "19 samples report no tail");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const perfbench::Summary s = perfbench::summarize(v);
  expect(s.n == 1000 && near(s.p50, 500.5), "median of 1..1000");
  expect(s.tail_q == 0.99 && near(s.tail, 990.01), "p99 of 1..1000 interpolates");
  expect(near(perfbench::quantile({3, 1, 2}, 0.5), 2.0), "quantile sorts its input");
  expect(perfbench::quantile({}, 0.5) == 0.0, "empty quantile is 0");
}

void due_time_latency() {
  using perfbench::Timed;
  // Due at 1.0/2.0/3.0; the generator sent late twice; one never answered.
  const std::vector<Timed> requests = {
      {1.0, 1.0, 1.010}, {2.0, 2.005, 2.020}, {3.0, 3.5, -1.0}};
  const std::vector<double> latency = perfbench::due_latencies(requests);
  expect(latency.size() == 2, "unanswered requests have no latency");
  expect(near(latency[0], 0.010) && near(latency[1], 0.020),
         "latency runs from the due time, not the send time");
  const std::vector<double> late = perfbench::lateness(requests);
  expect(late.size() == 3 && near(late[0], 0.0) && near(late[1], 0.005) &&
             near(late[2], 0.5),
         "lateness is send minus due for every request");

  const std::vector<double> a = perfbench::poisson_schedule(50.0, 20000, 7);
  const std::vector<double> b = perfbench::poisson_schedule(50.0, 20000, 7);
  expect(a == b, "the schedule is a function of its seed");
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending = ascending && a[i] > a[i - 1];
  expect(ascending, "due times ascend");
  expect(std::fabs(a.back() / a.size() - 1.0 / 50.0) < 0.001,
         "mean gap is 1/rate");
}

void self_time() {
  using perfbench::Span;
  // root [0,10]: a [1,4] with child g [2,3]; b [3,6] overlaps a;
  // c [9,12] sticks out past the root and is clipped for the root's sake.
  const std::vector<Span> spans = {
      {1, 0, "root", 0.0, 10.0}, {2, 1, "a", 1.0, 4.0}, {3, 2, "g", 2.0, 3.0},
      {4, 1, "b", 3.0, 6.0},     {5, 1, "c", 9.0, 12.0}};
  const auto self = perfbench::self_seconds(spans);
  expect(near(self.at("root"), 4.0), "root self = 10 - |[1,6] u [9,10]|");
  expect(near(self.at("a"), 2.0), "a self = 3 - 1");
  expect(near(self.at("g"), 1.0) && near(self.at("b"), 3.0) && near(self.at("c"), 3.0),
         "leaf self time is the whole span");
  double total = 0.0;
  for (const auto& [name, seconds] : self) total += seconds;
  expect(near(total, 13.0), "self times sum to the root plus what sticks out");

  perfbench::Tracer off(false);
  expect(off.open("x") == 0 && off.spans().empty(), "a disabled tracer records nothing");
  perfbench::Tracer on(true);
  const std::uint64_t id = on.open("x");
  on.record("y", id, 0.0, 0.0);
  on.close(id);
  expect(on.spans().size() == 2 && on.spans()[1].parent == id, "spans keep parents");
}

void hypervolume_reference() {
  const std::vector<double>& ref = perfbench::kHvReference;
  expect(ref.size() == 2 && ref[0] == 1.0 && ref[1] == 2.0,
         "reference point is (1 eV/atom, 2 eV/A)");
  const double maxint = static_cast<double>(std::numeric_limits<int>::max());
  expect(near(perfbench::front_hypervolume({{0.5, 1.0}}), 0.5), "one point");
  expect(near(perfbench::front_hypervolume({{0.5, 1.0}, {0.6, 1.5}, {maxint, maxint}}),
              0.5),
         "dominated and failed (MAXINT) points add nothing");
  expect(near(perfbench::front_hypervolume({{0.5, 1.0}, {0.25, 1.5}}), 0.625),
         "two-point staircase");
  expect(perfbench::front_hypervolume({{1.5, 0.1}, {0.1, 2.5}}) == 0.0,
         "points beyond the reference are ignored");
}

}  // namespace

int main() {
  percentile_rule();
  due_time_latency();
  self_time();
  hypervolume_reference();
  std::printf("perfbench_selftest: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
