#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/fs.hpp"

namespace dpho::obs {

namespace {

std::string format_number(double value) {
  char buffer[64];
  // Range first: converting a double past the long long range (or NaN) is
  // undefined behaviour, so the cast must only see |value| < 1e15.
  if (std::abs(value) < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
  }
  return buffer;
}

void render_scalar_table(std::ostringstream& out, const std::string& title,
                         const util::Json& object) {
  if (!object.is_object() || object.as_object().empty()) return;
  out << "  " << title << ":\n";
  std::size_t width = 0;
  for (const auto& [name, value] : object.as_object()) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, value] : object.as_object()) {
    out << "    " << name << std::string(width - name.size() + 2, ' ')
        << format_number(value.as_number()) << "\n";
  }
}

// A histogram or bucket count; a negative or out-of-range value would make
// the cast undefined, so it is refused.
std::uint64_t count_of(const util::Json& value) {
  const std::int64_t count = value.as_int();
  if (count < 0) throw util::ValueError("histogram count is negative");
  return static_cast<std::uint64_t>(count);
}

void render_histograms(std::ostringstream& out, const util::Json& histograms) {
  if (!histograms.is_object() || histograms.as_object().empty()) return;
  out << "  histograms:\n";
  for (const auto& [name, hist] : histograms.as_object()) {
    const std::uint64_t count = count_of(hist.at("count"));
    out << "    " << name << "  count=" << count
        << " sum=" << format_number(hist.at("sum").as_number());
    if (hist.contains("min")) {
      out << " min=" << format_number(hist.at("min").as_number())
          << " max=" << format_number(hist.at("max").as_number());
    }
    out << "\n";
    if (count == 0) continue;
    std::uint64_t peak = 0;
    for (const util::Json& bucket : hist.at("buckets").as_array()) {
      peak = std::max(peak, count_of(bucket.at("count")));
    }
    for (const util::Json& bucket : hist.at("buckets").as_array()) {
      const std::uint64_t n = count_of(bucket.at("count"));
      if (n == 0) continue;
      const std::string le = bucket.at("le").is_string()
                                 ? bucket.at("le").as_string()
                                 : format_number(bucket.at("le").as_number());
      const auto bar = static_cast<std::size_t>(
          1 + (39 * n) / std::max<std::uint64_t>(peak, 1));
      char label[64];
      std::snprintf(label, sizeof label, "      le %-10s %8llu |", le.c_str(),
                    static_cast<unsigned long long>(n));
      out << label << std::string(bar, '#') << "\n";
    }
  }
}

}  // namespace

std::vector<util::Json> load_timeline(const std::filesystem::path& path) {
  const std::string text = util::read_file(path);
  std::vector<util::Json> events;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    events.push_back(util::Json::parse(line));
  }
  return events;
}

bool is_metrics_document(const util::Json& document) {
  if (!document.is_object()) return false;
  if (document.string_or("schema", "") != "dpho.metrics.v1") return false;
  for (const char* section : {"deterministic", "timing"}) {
    if (!document.contains(section)) return false;
    const util::Json& block = document.at(section);
    if (!block.is_object()) return false;
    for (const char* group : {"counters", "gauges", "histograms"}) {
      if (!block.contains(group) || !block.at(group).is_object()) return false;
    }
  }
  return true;
}

std::string render_summary(const util::Json& summary) {
  std::ostringstream out;
  out << "== metrics summary (" << summary.string_or("schema", "unknown schema")
      << ") ==\n";
  for (const char* section : {"deterministic", "timing"}) {
    if (!summary.contains(section)) continue;
    const util::Json& block = summary.at(section);
    out << "[" << section << "]\n";
    render_scalar_table(out, "counters", block.at("counters"));
    render_scalar_table(out, "gauges", block.at("gauges"));
    render_histograms(out, block.at("histograms"));
  }
  return out.str();
}

std::string render_timeline(const std::vector<util::Json>& events) {
  std::ostringstream out;
  out << "== event timeline (" << events.size() << " events) ==\n";
  std::map<std::string, std::size_t> by_kind;
  for (const util::Json& event : events) {
    ++by_kind[event.string_or("kind", "<missing kind>")];
  }
  std::size_t width = 0;
  for (const auto& [kind, count] : by_kind) width = std::max(width, kind.size());
  for (const auto& [kind, count] : by_kind) {
    out << "  " << kind << std::string(width - kind.size() + 2, ' ') << count
        << "\n";
  }

  bool header = false;
  for (const util::Json& event : events) {
    if (event.string_or("kind", "") != "engine.wave") continue;
    if (!header) {
      out << "\n  wave | evaluations | failures | node_failures | makespan_min\n";
      out << "  -----+-------------+----------+---------------+-------------\n";
      header = true;
    }
    char row[128];
    std::snprintf(row, sizeof row, "  %4lld | %11lld | %8lld | %13lld | %12.2f\n",
                  static_cast<long long>(event.number_or("generation", -1)),
                  static_cast<long long>(event.number_or("evaluations", 0)),
                  static_cast<long long>(event.number_or("failures", 0)),
                  static_cast<long long>(event.number_or("node_failures", 0)),
                  event.number_or("makespan_minutes", 0.0));
    out << row;
  }
  return out.str();
}

}  // namespace dpho::obs
