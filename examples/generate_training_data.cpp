// Reference-data generation (paper section 2.1.3): run thermostatted MD of
// the molten AlCl3-KCl mixture and write shuffled train/validation datasets
// in the DeePMD on-disk layout (type.raw, type_map.raw, set.000/*.npy).
//
// Usage: ./examples/generate_training_data [output_dir] [num_frames] [kcl_units]
//   kcl_units=16 reproduces the paper's 160-atom system (slower).
//   -h / --help prints the usage and exits 0; an argument that looks like a
//   flag, or a count that is not a positive integer, prints it and exits 2
//   without running anything.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string_view>

#include "md/simulation.hpp"

namespace {

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: generate_training_data [output_dir] [num_frames] "
               "[kcl_units]\n"
               "  output_dir  dataset directory (default: dataset)\n"
               "  num_frames  frames to sample, >= 1 (default: 60)\n"
               "  kcl_units   KCl units of 10 atoms, >= 1 (default: 3; 16 is "
               "the paper's 160-atom system)\n");
}

/// A positive decimal count, or nothing.
std::optional<std::size_t> parse_count(std::string_view text) {
  std::size_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value == 0) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpho;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "-h") == 0 ||
        std::strcmp(argv[a], "--help") == 0) {
      print_usage(stdout);
      return 0;
    }
  }
  for (int a = 1; a < argc; ++a) {
    if (argv[a][0] == '-') {
      std::fprintf(stderr, "generate_training_data: unknown option %s\n",
                   argv[a]);
      print_usage(stderr);
      return 2;
    }
  }
  if (argc > 4) {
    std::fprintf(stderr, "generate_training_data: too many arguments\n");
    print_usage(stderr);
    return 2;
  }
  const std::filesystem::path out = argc > 1 ? argv[1] : "dataset";
  const std::optional<std::size_t> num_frames =
      argc > 2 ? parse_count(argv[2]) : std::optional<std::size_t>(60);
  const std::optional<std::size_t> units =
      argc > 3 ? parse_count(argv[3]) : std::optional<std::size_t>(3);
  if (!num_frames || !units) {
    std::fprintf(stderr,
                 "generate_training_data: %s is not a positive count\n",
                 !num_frames ? argv[2] : argv[3]);
    print_usage(stderr);
    return 2;
  }

  md::SimulationConfig config;
  config.spec = md::SystemSpec::scaled_system(*units);
  config.temperature_k = 498.0;
  config.num_frames = *num_frames;
  config.equilibration_steps = 300;
  config.sample_interval = 5;
  config.seed = 20230807;

  std::printf("system: %zu Al + %zu K + %zu Cl in a %.2f A box at %.0f K\n",
              config.spec.n_al(), config.spec.n_k(), config.spec.n_cl(),
              config.spec.box_length(), config.temperature_k);
  std::printf("running %zu equilibration + %zu production steps...\n",
              config.equilibration_steps, config.num_frames * config.sample_interval);

  const md::LabelledData data = md::generate_reference_data(config, 0.25);
  data.train.save(out / "train");
  data.validation.save(out / "validation");

  std::printf("wrote %zu training frames -> %s\n", data.train.size(),
              (out / "train").string().c_str());
  std::printf("wrote %zu validation frames -> %s\n", data.validation.size(),
              (out / "validation").string().c_str());
  std::printf("mean energy per atom: %.4f eV\n", data.train.mean_energy_per_atom());
  std::printf("\ntrain with:  ./src/dp/dp_train input.json %s %s\n",
              (out / "train").string().c_str(), (out / "validation").string().c_str());
  return 0;
}
