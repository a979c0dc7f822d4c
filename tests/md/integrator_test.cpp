#include "md/integrator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "md/session.hpp"

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dpho::md {
namespace {

/// A 10-atom system stepped through a ReferenceSession, the same
/// session-plus-VelocityVerlet path every MD driver uses.
struct MiniSystem {
  SystemState state;
  std::optional<ReferenceSession> session;
  std::vector<Vec3> forces;
  double potential_energy = 0.0;

  explicit MiniSystem(std::uint64_t seed, double temperature = 300.0) {
    util::Rng rng(seed);
    const SystemSpec spec = SystemSpec::scaled_system(1);  // 10 atoms
    state = spec.create_initial_state(temperature, rng);
    session.emplace(ReferencePotential(0.45 * spec.box_length()));
    forces.resize(state.size());
    potential_energy = session->compute(state, forces);
  }

  void step(const VelocityVerlet& integrator) {
    potential_energy = integrator.step(state, *session, forces);
  }
  double total_energy() const { return potential_energy + kinetic_energy(state); }
};

TEST(VelocityVerlet, RejectsNonPositiveTimestep) {
  EXPECT_THROW(VelocityVerlet(0.0), util::ValueError);
  EXPECT_THROW(VelocityVerlet(-1.0), util::ValueError);
}

TEST(VelocityVerlet, ConservesEnergyInNve) {
  MiniSystem sys(21, 200.0);
  const VelocityVerlet integrator(0.5);  // fs
  const double e0 = sys.total_energy();
  double max_drift = 0.0;
  for (int step = 0; step < 400; ++step) {
    sys.step(integrator);
    max_drift = std::max(max_drift, std::abs(sys.total_energy() - e0));
  }
  // Shifted-force potential + Verlet: drift well below 1% of kinetic energy.
  const double scale = std::max(1.0, std::abs(kinetic_energy(sys.state)));
  EXPECT_LT(max_drift, 0.05 * scale) << "e0=" << e0;
}

TEST(VelocityVerlet, TimeReversible) {
  MiniSystem sys(23, 150.0);
  const VelocityVerlet integrator(0.5);
  const SystemState initial = sys.state;
  for (int step = 0; step < 50; ++step) sys.step(integrator);
  // Reverse velocities and integrate back (the forces at the current
  // positions stay valid).
  for (auto& v : sys.state.velocities) v = v * -1.0;
  for (int step = 0; step < 50; ++step) sys.step(integrator);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_NEAR(sys.state.positions[i][k], initial.positions[i][k], 1e-6);
    }
  }
}

TEST(Langevin, RelaxesTowardTargetTemperature) {
  MiniSystem sys(29, 50.0);  // start cold
  const double target = 400.0;
  const VelocityVerlet integrator(1.0);
  util::Rng rng(30);
  LangevinThermostat thermostat(target, 0.05, rng.spawn(1));
  std::vector<double> temps;
  for (int step = 0; step < 2000; ++step) {
    sys.step(integrator);
    thermostat.apply(sys.state, 1.0);
    if (step > 1000) temps.push_back(kinetic_temperature(sys.state));
  }
  // 10 atoms fluctuate strongly; check the mean is in the right ballpark.
  EXPECT_NEAR(util::mean(temps), target, 0.35 * target);
}

TEST(Langevin, ValidatesParameters) {
  util::Rng rng(1);
  EXPECT_THROW(LangevinThermostat(-1.0, 0.1, rng.spawn(0)), util::ValueError);
  EXPECT_THROW(LangevinThermostat(300.0, 0.0, rng.spawn(0)), util::ValueError);
}

TEST(Langevin, ZeroTemperatureDampsVelocities) {
  MiniSystem sys(31, 300.0);
  util::Rng rng(32);
  LangevinThermostat thermostat(0.0, 0.5, rng.spawn(1));
  for (int i = 0; i < 200; ++i) thermostat.apply(sys.state, 1.0);
  EXPECT_LT(kinetic_temperature(sys.state), 1.0);
}

TEST(Berendsen, RescalesExactlyTowardTarget) {
  MiniSystem sys(37, 100.0);
  BerendsenThermostat thermostat(400.0, 10.0);
  double prev_gap = std::abs(kinetic_temperature(sys.state) - 400.0);
  for (int i = 0; i < 100; ++i) {
    thermostat.apply(sys.state, 1.0);
    const double gap = std::abs(kinetic_temperature(sys.state) - 400.0);
    EXPECT_LE(gap, prev_gap + 1e-9);
    prev_gap = gap;
  }
  EXPECT_NEAR(kinetic_temperature(sys.state), 400.0, 1.0);
}

TEST(Berendsen, ValidatesParameters) {
  EXPECT_THROW(BerendsenThermostat(300.0, 0.0), util::ValueError);
  EXPECT_THROW(BerendsenThermostat(-5.0, 1.0), util::ValueError);
}

}  // namespace
}  // namespace dpho::md
