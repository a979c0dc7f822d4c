// The benchmark's three workloads and the traced run's layer probes.
#pragma once

#include <cstdint>
#include <string>

#include "dp/config.hpp"
#include "md/dataset.hpp"
#include "support.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// Weights of every served and simulated model.  They are fixed, like a
/// deployment's: evaluation cost depends on the weights (in four sets of runs,
/// seed 7's models served 20-40% more frames/s than seed 9's), so --seed makes
/// only the data.
constexpr std::uint64_t kModelSeed = 0x5EED;

/// The network every workload uses (the hpo_paper template's fixed part):
/// embedding [8,16], axis 4, sel 128, fitting [24,24], batch 8.
dpho::dp::TrainInput model_shape(double rcut, double rcut_smth);

/// `count` labelled 160-atom AlCl3-KCl frames (scaled_system(16), the paper's
/// 17.84 A box) sampled from a reference-potential MD run seeded by `seed`.
dpho::md::FrameDataset make_frames(std::uint64_t seed, std::size_t count);

/// 32 such frames, shuffled and split 24/8, saved under `dir` as the
/// DeePMD-style train/ and valid/ directories dp_train loads.
struct DataDirs {
  std::filesystem::path train, valid;
};
DataDirs save_reference_data(const std::filesystem::path& dir, std::uint64_t seed);

/// serve_mix's archive under `dir`: models m0..m3 of the model_shape(6, 3)
/// network with fixed weights, energy shift from `frames`.
void build_serve_archive(const std::filesystem::path& dir,
                         const dpho::md::FrameDataset& frames);

/// Paper's Listing 1 over real dp_train subprocesses on 2 dpho_worker
/// processes (generational, population 8, two waves).
Outcome run_hpo_paper(const Args& args, Tracer& tracer);

/// NVE velocity Verlet on 16,380 atoms through dp::MdSession: a 4-thread
/// pool, then the serial path from the same start state.
Outcome run_md_nnp(const Args& args, Tracer& tracer);

/// In-process serve::Server under a seeded open loop at two rates, then a
/// closed-loop capacity phase.
Outcome run_serve_mix(const Args& args, Tracer& tracer);

/// Replays and probes of single layers on inputs made from the seed, run
/// only in the traced run: the dataset loader and trainer, the codec, the
/// archive, the potential, the serve round trip and the SIMD kernels.
std::vector<Metric> run_probes(const Args& args);

}  // namespace perfbench
