// md_nnp: NVE velocity Verlet on 16,380 atoms (scaled_system(1638), 498 K)
// through dp::MdSession, from one start state both on a 4-thread
// hpc::ThreadPool and on the default serial path (the two trajectories step
// in turn).  No IO, codec or process
// boundary: the DeepPot-SE force kernel, Verlet-skin / cell-list neighbor
// reuse and the pool's per-step parallel_for_static do all the work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "dp/md_session.hpp"
#include "dp/model.hpp"
#include "hpc/thread_pool.hpp"
#include "md/integrator.hpp"
#include "md/system.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dpho;

constexpr std::size_t kUnits = 1638;  // 16,380 atoms
constexpr double kTemperatureK = 498.0;
constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kSetupReps = 3;
/// NVE drift bound over the run, in eV per atom.
constexpr double kDriftBoundEvPerAtom = 1e-6;

/// The benchmark's span point around PotentialSession::compute().
class TimedSession final : public md::PotentialSession {
 public:
  explicit TimedSession(md::PotentialSession& inner) : inner_(inner) {}

  double compute(const md::SystemState& state,
                 std::span<md::Vec3> forces) override {
    const std::size_t rebuilds = inner_.neighbor_rebuilds();
    start_ = now_s();
    const double energy = inner_.compute(state, forces);
    end_ = now_s();
    rebuilt_ = inner_.neighbor_rebuilds() != rebuilds;
    return energy;
  }
  double cutoff() const override { return inner_.cutoff(); }
  double skin() const override { return inner_.skin(); }
  std::size_t steps() const override { return inner_.steps(); }
  std::size_t neighbor_rebuilds() const override {
    return inner_.neighbor_rebuilds();
  }

  double start() const { return start_; }
  double end() const { return end_; }
  bool rebuilt() const { return rebuilt_; }

 private:
  md::PotentialSession& inner_;
  double start_ = 0.0, end_ = 0.0;
  bool rebuilt_ = false;
};

/// One warmed session: its first compute() (session init, skeleton build,
/// buffer sizing) has run at the start state.
struct Rig {
  md::SystemState start;
  std::shared_ptr<const dp::DeepPotModel> model;
  std::unique_ptr<hpc::ThreadPool> pool;
  std::unique_ptr<dp::MdSession> session;
  std::vector<md::Vec3> forces;
  double energy = 0.0;
};

Rig make_rig(std::uint64_t seed, std::size_t threads) {
  Rig rig;
  util::Rng rng(seed);
  rig.start = md::SystemSpec::scaled_system(kUnits).create_initial_state(
      kTemperatureK, rng);
  rig.model = std::make_shared<const dp::DeepPotModel>(
      model_shape(6.0, 3.0), rig.start.types, 0.0, kModelSeed);
  md::SessionOptions options;
  if (threads > 0) {
    rig.pool = std::make_unique<hpc::ThreadPool>(threads);
    options.pool = rig.pool.get();
  }
  rig.session = std::make_unique<dp::MdSession>(rig.model, options);
  rig.forces.resize(rig.start.size());
  rig.energy = rig.session->compute(rig.start, rig.forces);
  return rig;
}

/// Per-step timings of one trajectory.
struct Trajectory {
  md::SystemState state;
  std::vector<md::Vec3> forces;
  std::vector<double> step_s, compute_s;
  std::vector<bool> rebuilt;
  double wall_s = 0.0;                 // sum of its steps
  double energy0 = 0.0, energy = 0.0;  // total (potential + kinetic), eV
  bool finite = true;
};

/// Steps every rig `steps` times from its start state, one step of each in
/// turn, so every trajectory samples the whole run's machine state rather
/// than one stretch of it.  Each step is a root span ("md.integrator.step"
/// + `tag`) with its compute() as the child.
std::vector<Trajectory> run_steps(const std::vector<Rig*>& rigs, std::size_t steps,
                                  Tracer& tracer, const std::string& tag) {
  const md::VelocityVerlet integrator(1.0);
  std::vector<Trajectory> out(rigs.size());
  std::vector<std::unique_ptr<TimedSession>> timed;
  std::vector<double> potential;
  for (std::size_t r = 0; r < rigs.size(); ++r) {
    out[r].state = rigs[r]->start;
    out[r].forces = rigs[r]->forces;
    out[r].energy0 = rigs[r]->energy + md::kinetic_energy(out[r].state);
    timed.push_back(std::make_unique<TimedSession>(*rigs[r]->session));
    potential.push_back(rigs[r]->energy);
  }
  for (std::size_t k = 0; k < steps; ++k) {
    for (std::size_t r = 0; r < rigs.size(); ++r) {
      Trajectory& t = out[r];
      const double s0 = now_s();
      potential[r] = integrator.step(t.state, *timed[r], t.forces);
      const double s1 = now_s();
      const std::uint64_t step =
          tracer.record("md.integrator.step" + tag, 0, s0, s1);
      tracer.record(timed[r]->rebuilt() ? "dp.md_session.compute_rebuild"
                                        : "dp.md_session.compute",
                    step, timed[r]->start(), timed[r]->end());
      t.step_s.push_back(s1 - s0);
      t.wall_s += s1 - s0;
      t.compute_s.push_back(timed[r]->end() - timed[r]->start());
      t.rebuilt.push_back(timed[r]->rebuilt());
      t.finite = t.finite && std::isfinite(potential[r]);
    }
  }
  for (std::size_t r = 0; r < rigs.size(); ++r) {
    out[r].energy = potential[r] + md::kinetic_energy(out[r].state);
  }
  return out;
}

bool bitwise_equal(const std::vector<md::Vec3>& a,
                   const std::vector<md::Vec3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(md::Vec3)) == 0;
}

std::vector<double> select(const std::vector<double>& values,
                           const std::vector<bool>& mask, bool want) {
  std::vector<double> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (mask[i] == want) out.push_back(values[i]);
  }
  return out;
}

}  // namespace

Outcome run_md_nnp(const Args& args, Tracer& tracer) {
  Outcome out;
  // A fixed step count per --seconds (a pool step and a serial step take
  // about 1.25 s together on the reference machine).
  const std::size_t steps =
      std::max<std::size_t>(4, static_cast<std::size_t>(args.seconds * 0.8));
  std::vector<double> setup;
  Rig pooled;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const double t0 = now_s();
    pooled = make_rig(args.seed, kPoolThreads);
    setup.push_back(now_s() - t0);
  }
  const std::size_t atoms = pooled.start.size();
  std::printf("md_nnp: %zu atoms, %zu steps per trajectory, pool %zu threads, "
              "skin %.2f A, cutoff %.2f A\n",
              atoms, steps, kPoolThreads, pooled.session->skin(),
              pooled.session->cutoff());

  const double serial_setup_t0 = now_s();
  Rig serial = make_rig(args.seed, 0);
  const double serial_setup_s = now_s() - serial_setup_t0;

  obs::metrics().reset();  // the stepping's rebuilds only
  const std::vector<Trajectory> runs = run_steps({&pooled, &serial}, steps, tracer, "");
  const Trajectory& pool_run = runs[0];
  const Trajectory& serial_run = runs[1];
  const std::size_t live_pairs = pooled.session->last_live_pairs();
  const auto rebuild_hist = obs::metrics()
                                .histogram("md.session.rebuild_seconds",
                                           obs::BucketLayout::timing_seconds())
                                .snapshot();

  // ---- output checks
  out.attempted = 2 * steps;
  out.failed = 0;
  for (const Trajectory* t : {&pool_run, &serial_run}) {
    if (!t->finite) out.failed += steps;
  }
  out.check(bitwise_equal(pooled.forces, serial.forces),
            "start-state forces: 4-thread pool == serial, bitwise");
  out.check(bitwise_equal(pool_run.state.positions, serial_run.state.positions) &&
                bitwise_equal(pool_run.state.velocities,
                              serial_run.state.velocities) &&
                bitwise_equal(pool_run.forces, serial_run.forces),
            "after " + std::to_string(steps) +
                " steps: pool and serial trajectories bitwise equal");
  const double drift =
      std::fabs(pool_run.energy - pool_run.energy0) / static_cast<double>(atoms);
  char buf[200];
  std::snprintf(buf, sizeof buf, "NVE drift %.3g eV/atom over %zu steps < %.0e",
                drift, steps, kDriftBoundEvPerAtom);
  out.check(pool_run.finite && serial_run.finite && drift < kDriftBoundEvPerAtom,
            buf);

  // ---- end-to-end
  const double steps_per_s = static_cast<double>(steps) / pool_run.wall_s;
  const double serial_steps_per_s = static_cast<double>(steps) / serial_run.wall_s;
  std::printf("md_steps_per_s        = %.6g 1/s (4-thread pool)\n", steps_per_s);
  std::printf("md_steps_per_s_serial = %.6g 1/s (no pool)\n", serial_steps_per_s);
  std::printf("serial session warm-up %.3f s (not in setup_s)\n", serial_setup_s);

  out.end_to_end = {
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(false), "MB"},
      {"throughput_per_s", steps_per_s, "1/s"},
      {"p50_ms", 1e3 * median(pool_run.step_s), "ms"},
      {"tail_ms", 1e3 * median(serial_run.step_s), "ms"},
      {"success_share",
       static_cast<double>(out.attempted - out.failed) /
           static_cast<double>(out.attempted),
       "ratio"},
  };

  // ---- layers (the traced run reports them; they cost nothing to compute)
  const std::vector<double> plain = select(pool_run.compute_s, pool_run.rebuilt, false);
  const std::vector<double> rebuild = select(pool_run.compute_s, pool_run.rebuilt, true);
  const std::vector<double> serial_plain =
      select(serial_run.compute_s, serial_run.rebuilt, false);
  std::vector<double> other;
  double compute_total = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    other.push_back(pool_run.step_s[k] - pool_run.compute_s[k]);
    compute_total += pool_run.compute_s[k];
  }
  const std::size_t rebuilds = static_cast<std::size_t>(
      std::count(pool_run.rebuilt.begin(), pool_run.rebuilt.end(), true));
  out.layers = {
      {"dp.md_session.compute_p50_ms", 1e3 * median(plain), "ms"},
      {"dp.md_session.rebuild_step_p50_ms", 1e3 * median(rebuild), "ms"},
      {"md.integrator.other_ms", 1e3 * median(other), "ms"},
      {"md.neighbor.steps_per_rebuild",
       static_cast<double>(steps) / static_cast<double>(std::max<std::size_t>(1, rebuilds)),
       "count"},
      {"md.session.rebuild_s", rebuild_hist.mean(), "s"},
      {"dp.md_session.pairs_per_s",
       static_cast<double>(live_pairs) * static_cast<double>(steps) / compute_total,
       "1/s"},
      {"hpc.thread_pool.md_speedup_4t", median(serial_plain) / median(plain),
       "ratio"},
  };
  if (tracer.enabled()) {
    // Probe: the default serial path against a 1-thread pool on the same
    // problem.
    Rig one = make_rig(args.seed, 1);
    const Trajectory pool1 = run_steps({&one}, 3, tracer, ".probe_pool1")[0];
    out.layers.push_back({"md.serial_over_pool1_compute",
                          median(serial_plain) /
                              median(select(pool1.compute_s, pool1.rebuilt, false)),
                          "ratio"});
  }
  return out;
}

}  // namespace perfbench
