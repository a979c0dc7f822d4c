#include "md/box.hpp"

#include <cmath>

#include "util/error.hpp"

namespace dpho::md {

Box::Box(double length) : length_(length), inv_length_(1.0 / length) {
  if (!std::isfinite(length) || length <= 0.0) {
    throw util::ValueError("box length must be positive and finite");
  }
}

Vec3 Box::displacement(const Vec3& ri, const Vec3& rj) const {
  Vec3 d = rj - ri;
  for (double& component : d) {
    component -= length_ * std::nearbyint(component * inv_length_);
  }
  return d;
}

double Box::distance(const Vec3& ri, const Vec3& rj) const {
  return norm(displacement(ri, rj));
}

Vec3 Box::wrap(const Vec3& r) const {
  Vec3 wrapped = r;
  for (double& component : wrapped) {
    component -= length_ * std::floor(component * inv_length_);
    if (component >= length_) component = 0.0;  // guard against fp edge
    if (component < 0.0) component = 0.0;
  }
  return wrapped;
}

}  // namespace dpho::md
