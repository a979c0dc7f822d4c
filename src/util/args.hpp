// Minimal command-line flag parser for the tools and examples.
//
// Supports "--name value", "--name=value", bare "--flag" booleans, and
// positional arguments, with typed accessors and a generated usage string.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dpho::util {

class ArgParser {
 public:
  /// Declares a flag; `help` feeds usage(). Declare before parse().
  ArgParser& add_flag(const std::string& name, const std::string& help,
                      bool takes_value = true);

  /// Parses argv; throws ParseError on unknown flags or missing values.
  void parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  double get(const std::string& name, double fallback) const;
  std::int64_t get(const std::string& name, std::int64_t fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// "usage: <program> [--flag ...]" plus one line per declared flag.
  std::string usage(const std::string& program) const;

 private:
  struct Spec {
    std::string help;
    bool takes_value = true;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The execution-backend flags every heavy tool shares (dpho_hpo, dp_train,
/// dp_serve): worker threads, metrics export, and -- for tools that can farm
/// work out to subprocess clusters -- the cluster selection trio.  One
/// declaration + one parser means one set of flag names, defaults and error
/// messages across the suite; each tool maps the result onto its own config
/// struct (core::EvalBackendConfig, hpc::ClusterBackendConfig, serve options)
/// since util cannot depend on those layers.
struct BackendFlags {
  std::string cluster = "sim";       // sim | process
  std::size_t workers = 0;           // 0 = derived from the node count
  std::string worker_binary;         // default: the dpho_worker of this build
  std::size_t threads = 2;           // worker threads for payload evaluation
  std::string metrics_out;           // JSONL event timeline; empty = disabled
  std::size_t metrics_interval = 0;  // snapshot cadence; 0 = off
};

/// Which of the shared flags a tool exposes, and its defaults.
struct BackendFlagOptions {
  /// Include --cluster/--workers/--worker-binary (tools that can run on a
  /// process cluster).  Tools without a cluster backend leave this false and
  /// get only --threads/--metrics-out/--metrics-interval.
  bool cluster = false;
  std::size_t default_threads = 2;
};

/// Declares the shared backend flags on `parser`.
void add_backend_flags(ArgParser& parser, const BackendFlagOptions& options = {});

/// Reads the shared backend flags back after parse(), validating values with
/// tool-independent error messages.  Throws ParseError on a bad cluster name
/// or negative count.
BackendFlags parse_backend_flags(const ArgParser& parser,
                                 const BackendFlagOptions& options = {});

}  // namespace dpho::util
