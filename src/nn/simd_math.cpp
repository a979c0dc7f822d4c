// The scalar twin of the AVX2 activation kernels: nn::simd::tanh / sigmoid /
// exp and the scalar layer kernels of Ops::tanh_layer / Ops::sigmoid_layer.
// Built with -ffp-contract=off (src/nn/CMakeLists.txt): the lane-generic
// code in simd_math.hpp must not gain FMAs here that the vector side lacks.
#include "nn/simd_math.hpp"

#include "nn/simd.hpp"

namespace dpho::nn::simd {

double tanh(double x) { return math::tanh(x); }
double sigmoid(double x) { return math::sigmoid(x); }
double exp(double x) { return math::exp(x); }

namespace {

template <void (*Terms)(double, double&, double&, double&)>
void scalar_layer(const double* z, std::size_t n, double* y, double* sp,
                  double* spp) {
  for (std::size_t k = 0; k < n; ++k) {
    double dd = 0.0;
    Terms(z[k], y[k], sp[k], dd);
    if (spp != nullptr) spp[k] = dd;
  }
}

}  // namespace

void detail::scalar_tanh_layer(const double* z, std::size_t n, double* y,
                               double* sp, double* spp) {
  scalar_layer<tanh_terms<double>>(z, n, y, sp, spp);
}

void detail::scalar_sigmoid_layer(const double* z, std::size_t n, double* y,
                                  double* sp, double* spp) {
  scalar_layer<sigmoid_terms<double>>(z, n, y, sp, spp);
}

}  // namespace dpho::nn::simd
