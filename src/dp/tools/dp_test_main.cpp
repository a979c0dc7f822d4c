// dp_test: evaluate a trained model on a labelled dataset, the stand-in for
// DeePMD-kit's `dp test` subcommand.
//
//   dp_test <model.json> <data_dir> [--per-frame]
//
// Prints the per-atom energy RMSE and force-component RMSE over the dataset.
// Predictions come from dp::Potential::evaluate, the same entry point
// dp_serve and the trainer's validation pass use.
// Exit codes: 0 success, 2 bad usage, 4 failure.
#include <cmath>
#include <cstring>
#include <iostream>

#include "dp/potential.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  using namespace dpho;
  if (argc < 3) {
    std::cerr << "usage: dp_test <model.json> <data_dir> [--per-frame]\n";
    return 2;
  }
  bool per_frame = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--per-frame") == 0) {
      per_frame = true;
    } else {
      std::cerr << "usage: dp_test <model.json> <data_dir> [--per-frame]\n";
      return 2;
    }
  }

  try {
    const dp::Potential potential = dp::Potential::load_file(argv[1]);
    const md::FrameDataset data = md::FrameDataset::load(argv[2]);
    if (data.num_atoms() != potential.num_atoms()) {
      throw util::ValueError("dataset atom count does not match the model");
    }
    double sum_e = 0.0, sum_f = 0.0;
    for (std::size_t f = 0; f < data.size(); ++f) {
      const md::Frame& frame = data.frame(f);
      const md::ForceEnergy prediction = potential.evaluate(frame);
      const double n = static_cast<double>(frame.positions.size());
      const double de = (prediction.energy - frame.energy) / n;
      double ss = 0.0;
      for (std::size_t a = 0; a < frame.forces.size(); ++a) {
        for (int k = 0; k < 3; ++k) {
          const double df = prediction.forces[a][k] - frame.forces[a][k];
          ss += df * df;
        }
      }
      const double frame_f = ss / (3.0 * n);
      sum_e += de * de;
      sum_f += frame_f;
      if (per_frame) {
        std::cout << "frame " << f << ": rmse_e=" << std::abs(de)
                  << " rmse_f=" << std::sqrt(frame_f) << "\n";
      }
    }
    const double count = static_cast<double>(data.size());
    std::cout << "frames: " << data.size() << "\n"
              << "energy rmse: " << std::sqrt(sum_e / count) << " eV/atom\n"
              << "force  rmse: " << std::sqrt(sum_f / count) << " eV/A\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dp_test: " << e.what() << "\n";
    return 4;
  }
}
