// The dpho_report CLI end to end: renders a real run's metrics summary and
// timeline, prints raw sections for the regen tooling, and digests files.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "util/fs.hpp"
#include "util/json.hpp"

#ifndef DPHO_HPO_BIN
#define DPHO_HPO_BIN "dpho_hpo"
#endif
#ifndef DPHO_REPORT_BIN
#define DPHO_REPORT_BIN "dpho_report"
#endif

namespace dpho {
namespace {

int run_command(const std::string& command) {
  return WEXITSTATUS(std::system(command.c_str()));
}

class DphoReportCli : public ::testing::Test {
 protected:
  // One tiny instrumented run shared by every test in the fixture.
  static void SetUpTestSuite() {
    dir_ = new util::TempDir;
    const std::string command =
        std::string(DPHO_HPO_BIN) +
        " --pop 6 --generations 1 --runs 1 --threads 2 --out " +
        (dir_->path() / "out").string() + " --metrics-out " +
        (dir_->path() / "metrics.jsonl").string() +
        " --quiet > /dev/null 2>&1";
    ASSERT_EQ(run_command(command), 0);
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static std::filesystem::path summary() {
    return dir_->path() / "out" / "metrics_summary.json";
  }
  static std::filesystem::path timeline() {
    return dir_->path() / "metrics.jsonl";
  }

  static util::TempDir* dir_;
};

util::TempDir* DphoReportCli::dir_ = nullptr;

TEST_F(DphoReportCli, RendersSummaryAndTimeline) {
  const std::filesystem::path report = dir_->path() / "report.txt";
  const int code = run_command(std::string(DPHO_REPORT_BIN) + " --summary " +
                               summary().string() + " --timeline " +
                               timeline().string() + " --out " +
                               report.string());
  ASSERT_EQ(code, 0);
  const std::string text = util::read_file(report);
  EXPECT_NE(text.find("== metrics summary (dpho.metrics.v1) =="),
            std::string::npos);
  EXPECT_NE(text.find("engine.evaluations_total"), std::string::npos);
  EXPECT_NE(text.find("== event timeline"), std::string::npos);
  EXPECT_NE(text.find("engine.wave"), std::string::npos);
  EXPECT_NE(text.find("makespan_min"), std::string::npos);
}

TEST_F(DphoReportCli, SectionModePrintsRawJson) {
  const std::filesystem::path raw = dir_->path() / "det.json";
  const int code = run_command(std::string(DPHO_REPORT_BIN) + " --summary " +
                               summary().string() +
                               " --section deterministic --out " + raw.string());
  ASSERT_EQ(code, 0);
  // Byte-identical to dumping the section straight from the document: the
  // regen tooling relies on this equivalence.
  const util::Json document = util::Json::parse(util::read_file(summary()));
  EXPECT_EQ(util::read_file(raw), document.at("deterministic").dump(2) + "\n");
}

TEST_F(DphoReportCli, Fnv1aDigestsFileBytes) {
  const std::filesystem::path probe = dir_->path() / "probe.txt";
  util::write_file(probe, "hello");
  const std::filesystem::path digest = dir_->path() / "digest.txt";
  ASSERT_EQ(run_command(std::string(DPHO_REPORT_BIN) + " --fnv1a " +
                        probe.string() + " --out " + digest.string()),
            0);
  // Known FNV-1a 64 test vector for "hello".
  EXPECT_EQ(util::read_file(digest), "a430d84680aabd0b\n");
}

TEST_F(DphoReportCli, BadUsageFails) {
  EXPECT_EQ(run_command(std::string(DPHO_REPORT_BIN) + " > /dev/null 2>&1"), 2);
  EXPECT_EQ(run_command(std::string(DPHO_REPORT_BIN) +
                        " --summary /nonexistent.json > /dev/null 2>&1"),
            1);
}

// Values past the long long range take the "%.6g" branch; the integer
// check must not convert them first, nor may a histogram count be cast
// unchecked (undefined behaviour, which the asan-ubsan preset's
// float-cast-overflow check turns into a failure).
TEST(DphoReportSummary, RendersValuesPastTheIntegerRange) {
  const util::TempDir dir;
  const std::filesystem::path input = dir.path() / "summary.json";
  util::write_file(input, R"({"schema": "dpho.metrics.v1",
    "deterministic": {"counters": {"big": 1e300, "exact": 42},
                      "gauges": {"negative": -1e19, "fraction": 0.25},
                      "histograms": {}},
    "timing": {"counters": {}, "gauges": {}, "histograms": {
      "seconds": {"count": 1, "sum": 1e300, "min": -1e19, "max": 1e300,
                  "buckets": [{"le": 1e300, "count": 1}]}}}})");
  const std::filesystem::path report = dir.path() / "report.txt";
  ASSERT_EQ(run_command(std::string(DPHO_REPORT_BIN) + " --summary " +
                        input.string() + " --out " + report.string()),
            0);
  const std::string text = util::read_file(report);
  EXPECT_NE(text.find("big    1e+300\n"), std::string::npos) << text;
  EXPECT_NE(text.find("exact  42\n"), std::string::npos) << text;
  EXPECT_NE(text.find("negative  -1e+19\n"), std::string::npos) << text;
  EXPECT_NE(text.find("fraction  0.25\n"), std::string::npos) << text;
  EXPECT_NE(text.find("sum=1e+300 min=-1e+19 max=1e+300"), std::string::npos)
      << text;
  EXPECT_NE(text.find("le 1e+300"), std::string::npos) << text;

  // A count no uint64 holds is refused, not cast.
  for (const char* count : {"-1", "1e300"}) {
    util::write_file(input, std::string(R"({"schema": "dpho.metrics.v1",
      "deterministic": {"counters": {}, "gauges": {}, "histograms": {
        "h": {"count": )") + count + R"(, "sum": 0, "buckets": []}}},
      "timing": {"counters": {}, "gauges": {}, "histograms": {}}})");
    EXPECT_EQ(run_command(std::string(DPHO_REPORT_BIN) + " --summary " +
                          input.string() + " > /dev/null 2>&1"),
              1)
        << count;
  }
}

}  // namespace
}  // namespace dpho
