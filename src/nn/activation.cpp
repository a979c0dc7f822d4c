#include "nn/activation.hpp"

#include <cmath>

#include "util/error.hpp"

namespace dpho::nn {

Activation activation_from_string(const std::string& name) {
  if (name == "relu") return Activation::kRelu;
  if (name == "relu6") return Activation::kRelu6;
  if (name == "softplus") return Activation::kSoftplus;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "tanh") return Activation::kTanh;
  if (name == "identity" || name == "none" || name == "linear") {
    return Activation::kIdentity;
  }
  throw util::ValueError("unknown activation: " + name);
}

std::string to_string(Activation activation) {
  switch (activation) {
    case Activation::kRelu: return "relu";
    case Activation::kRelu6: return "relu6";
    case Activation::kSoftplus: return "softplus";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kTanh: return "tanh";
    case Activation::kIdentity: return "identity";
  }
  throw util::ValueError("invalid activation enum");
}

namespace {

double softplus_value(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

double sigmoid_value(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

double apply(Activation activation, double x) {
  switch (activation) {
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kRelu6: return x <= 0.0 ? 0.0 : (x >= 6.0 ? 6.0 : x);
    case Activation::kSoftplus: return softplus_value(x);
    case Activation::kSigmoid: return sigmoid_value(x);
    case Activation::kTanh: return std::tanh(x);
    case Activation::kIdentity: return x;
  }
  throw util::ValueError("invalid activation enum");
}

ad::Var apply(Activation activation, ad::Var x) {
  switch (activation) {
    case Activation::kRelu: return relu(x);
    case Activation::kRelu6: return relu6(x);
    case Activation::kSoftplus: return softplus(x);
    case Activation::kSigmoid: return sigmoid(x);
    case Activation::kTanh: return tanh(x);
    case Activation::kIdentity: return x;
  }
  throw util::ValueError("invalid activation enum");
}

double second_derivative(Activation activation, double x) {
  switch (activation) {
    case Activation::kRelu:
    case Activation::kRelu6:
    case Activation::kIdentity:
      return 0.0;
    case Activation::kSoftplus: {
      // softplus'' = sigmoid' = s (1 - s)
      const double s = sigmoid_value(x);
      return s * (1.0 - s);
    }
    case Activation::kSigmoid: {
      // sigmoid'' = s (1 - s) (1 - 2s)
      const double s = sigmoid_value(x);
      return s * (1.0 - s) * (1.0 - 2.0 * s);
    }
    case Activation::kTanh: {
      // tanh'' = -2 t (1 - t^2)
      const double t = std::tanh(x);
      return -2.0 * t * (1.0 - t * t);
    }
  }
  throw util::ValueError("invalid activation enum");
}

double derivative(Activation activation, double x) {
  switch (activation) {
    case Activation::kRelu: return x > 0.0 ? 1.0 : 0.0;
    case Activation::kRelu6: return (x > 0.0 && x < 6.0) ? 1.0 : 0.0;
    case Activation::kSoftplus: return sigmoid_value(x);
    case Activation::kSigmoid: {
      const double s = sigmoid_value(x);
      return s * (1.0 - s);
    }
    case Activation::kTanh: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
    case Activation::kIdentity: return 1.0;
  }
  throw util::ValueError("invalid activation enum");
}

void activate_layer(Activation activation, std::span<const double> z,
                    std::span<double> y, std::span<double> sp,
                    std::span<double> spp) {
  const std::size_t n = z.size();
  if (y.size() != n || sp.size() != n || (!spp.empty() && spp.size() != n)) {
    throw util::ValueError("activate_layer: output size mismatch");
  }
  // Each case mirrors the expression forms of apply / derivative /
  // second_derivative term for term, so the outputs are bitwise equal to
  // the scalar oracle.  relu, relu6 and identity are piecewise linear, so
  // their s'' is 0.
  const bool curvature = !spp.empty();
  switch (activation) {
    case Activation::kRelu:
      for (std::size_t k = 0; k < n; ++k) {
        const double x = z[k];
        y[k] = x > 0.0 ? x : 0.0;
        sp[k] = x > 0.0 ? 1.0 : 0.0;
        if (curvature) spp[k] = 0.0;
      }
      return;
    case Activation::kRelu6:
      for (std::size_t k = 0; k < n; ++k) {
        const double x = z[k];
        y[k] = x <= 0.0 ? 0.0 : (x >= 6.0 ? 6.0 : x);
        sp[k] = (x > 0.0 && x < 6.0) ? 1.0 : 0.0;
        if (curvature) spp[k] = 0.0;
      }
      return;
    case Activation::kSoftplus:
      for (std::size_t k = 0; k < n; ++k) {
        const double s = sigmoid_value(z[k]);
        y[k] = softplus_value(z[k]);
        sp[k] = s;
        if (curvature) spp[k] = s * (1.0 - s);
      }
      return;
    case Activation::kSigmoid:
      for (std::size_t k = 0; k < n; ++k) {
        const double s = sigmoid_value(z[k]);
        const double ds = s * (1.0 - s);
        y[k] = s;
        sp[k] = ds;
        if (curvature) spp[k] = ds * (1.0 - 2.0 * s);
      }
      return;
    case Activation::kTanh:
      for (std::size_t k = 0; k < n; ++k) {
        const double t = std::tanh(z[k]);
        const double dt = 1.0 - t * t;
        y[k] = t;
        sp[k] = dt;
        if (curvature) spp[k] = -2.0 * t * dt;
      }
      return;
    case Activation::kIdentity:
      for (std::size_t k = 0; k < n; ++k) {
        y[k] = z[k];
        sp[k] = 1.0;
        if (curvature) spp[k] = 0.0;
      }
      return;
  }
  throw util::ValueError("invalid activation enum");
}

}  // namespace dpho::nn
