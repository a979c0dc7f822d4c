// Time integration: velocity Verlet with optional thermostats.
#pragma once

#include <span>

#include "md/potential.hpp"
#include "md/system.hpp"
#include "util/rng.hpp"

namespace dpho::md {

class PotentialSession;

/// Thermostat selection for the MD driver.
enum class Thermostat { kNone, kLangevin, kBerendsen };

/// Velocity-Verlet integrator (NVE when no thermostat is attached).
class VelocityVerlet {
 public:
  /// `dt` in femtoseconds.
  explicit VelocityVerlet(double dt);

  double dt() const { return dt_; }

  /// Advances one step in place through a persistent session (allocation
  /// free): `forces` holds the forces at the current positions on entry and
  /// the forces at the new positions on return.  Returns the new potential
  /// energy.
  double step(SystemState& state, PotentialSession& session,
              std::span<Vec3> forces) const;

 private:
  double dt_;
};

/// Stochastic Langevin velocity update (applied after each Verlet step).
class LangevinThermostat {
 public:
  /// `friction` in 1/fs; typical molten-salt values 0.01-0.1.
  LangevinThermostat(double temperature_k, double friction, util::Rng rng);

  void apply(SystemState& state, double dt);

 private:
  double temperature_k_;
  double friction_;
  util::Rng rng_;
};

/// Deterministic Berendsen velocity rescaling.
class BerendsenThermostat {
 public:
  /// `tau` in fs; the relaxation time of the weak coupling.
  BerendsenThermostat(double temperature_k, double tau);

  void apply(SystemState& state, double dt);

 private:
  double temperature_k_;
  double tau_;
};

}  // namespace dpho::md
