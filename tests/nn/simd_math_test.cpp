// nn::simd's tanh, sigmoid and exp: accuracy against a long double
// reference, the edge cases, and the twin contract -- the AVX2 layer kernels
// are bitwise equal to the scalar twin for every layer length, and
// activate_layer gives the same bits with SIMD on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/activation.hpp"
#include "nn/simd.hpp"
#include "util/rng.hpp"

namespace dpho::nn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

// The stated error bounds (simd.hpp).
constexpr double kExpUlp = 1.0;
constexpr double kTanhUlp = 2.5;
constexpr double kSigmoidUlp = 2.5;

/// |got - ref| in units of the last place of ref's binade (2^-1074 below
/// the normal range).
double ulp_error(double got, long double ref) {
  int exponent = 0;
  std::frexp(ref, &exponent);  // 2^(exponent-1) <= |ref| < 2^exponent
  const long double ulp = std::ldexp(1.0L, std::max(exponent - 53, -1074));
  return static_cast<double>(std::fabs(static_cast<long double>(got) - ref) / ulp);
}

long double ref_sigmoid(double x) {
  return 1.0L / (1.0L + std::exp(-static_cast<long double>(x)));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The seeded sweep: random bit patterns over the whole finite double range,
/// plus dense uniform draws where the functions bend ([-40, 40]) and
/// log-uniform magnitudes down to 2^-60 (the small-|x| regime).
std::vector<double> sweep() {
  util::Rng rng(2026);
  std::vector<double> xs;
  while (xs.size() < 100000) {
    const double x = std::bit_cast<double>(rng());
    if (std::isfinite(x)) xs.push_back(x);
  }
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.uniform(-40.0, 40.0));
  for (int i = 0; i < 50000; ++i) {
    const double magnitude = std::exp2(rng.uniform(-60.0, 3.0));
    xs.push_back(rng.uniform() < 0.5 ? -magnitude : magnitude);
  }
  return xs;
}

TEST(SimdMath, TanhWithinStatedUlpBound) {
  double worst = 0.0;
  double worst_x = 0.0;
  for (const double x : sweep()) {
    const double err = ulp_error(simd::tanh(x), std::tanh(static_cast<long double>(x)));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, kTanhUlp) << "at x = " << worst_x;
}

TEST(SimdMath, SigmoidWithinStatedUlpBound) {
  double worst = 0.0;
  double worst_x = 0.0;
  for (const double x : sweep()) {
    const double err = ulp_error(simd::sigmoid(x), ref_sigmoid(x));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, kSigmoidUlp) << "at x = " << worst_x;
}

TEST(SimdMath, ExpWithinStatedUlpBound) {
  std::vector<double> xs = sweep();
  util::Rng rng(7);
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.uniform(-750.0, 709.5));
  double worst = 0.0;
  double worst_x = 0.0;
  for (const double x : xs) {
    if (x > 709.5) continue;  // overflow is checked in Edges
    const double err = ulp_error(simd::exp(x), std::exp(static_cast<long double>(x)));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, kExpUlp) << "at x = " << worst_x;
}

TEST(SimdMath, TanhIsOddAndSigmoidReflects) {
  util::Rng rng(11);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform(0.0, 45.0);
    // tanh is odd by construction: the sign is copied onto |tanh|.
    EXPECT_TRUE(same_bits(simd::tanh(-x), -simd::tanh(x))) << x;
    // sigmoid(-x) = 1 - sigmoid(x), within both sides' error bounds.
    const double lo = simd::sigmoid(-x);
    const double hi = simd::sigmoid(x);
    const double tol = kSigmoidUlp * (std::ldexp(1.0, std::ilogb(hi) - 52) +
                                      std::ldexp(1.0, std::ilogb(lo) - 52));
    EXPECT_LE(std::fabs(lo - (1.0 - hi)), tol) << x;
  }
}

TEST(SimdMath, Edges) {
  // Signed zeros and subnormals: tanh(x) == x, sign kept; sigmoid and exp
  // see 0.
  for (const double x : {0.0, -0.0, kDenormMin, -kDenormMin,
                         std::numeric_limits<double>::min() / 3.0,
                         -std::numeric_limits<double>::min() / 3.0,
                         std::numeric_limits<double>::min()}) {
    EXPECT_TRUE(same_bits(simd::tanh(x), x)) << x;
    EXPECT_EQ(simd::sigmoid(x), 0.5) << x;
    EXPECT_EQ(simd::exp(x), 1.0) << x;
  }
  EXPECT_EQ(simd::tanh(0x1p-30), 0x1p-30);
  EXPECT_EQ(simd::tanh(-0x1p-30), -0x1p-30);
  // Saturation: tanh is exactly +-1 past 20 (the clamp) and already at
  // 19.5; sigmoid is exactly 1 from 40 on and follows e^x below -40.
  for (const double x : {19.5, 20.0, 20.5, 25.0, 40.0, 1e300, kInf}) {
    EXPECT_EQ(simd::tanh(x), 1.0) << x;
    EXPECT_EQ(simd::tanh(-x), -1.0) << x;
  }
  for (const double x : {40.0, 45.0, 1e300, kInf}) {
    EXPECT_EQ(simd::sigmoid(x), 1.0) << x;
  }
  EXPECT_LE(ulp_error(simd::sigmoid(-40.0), ref_sigmoid(-40.0)), kSigmoidUlp);
  EXPECT_LE(ulp_error(simd::sigmoid(-740.0), ref_sigmoid(-740.0)), kSigmoidUlp);
  EXPECT_GT(simd::sigmoid(-740.0), 0.0);  // subnormal, not flushed
  for (const double x : {-746.0, -800.0, -1e300, -kInf}) {
    EXPECT_TRUE(same_bits(simd::sigmoid(x), 0.0)) << x;
    EXPECT_TRUE(same_bits(simd::exp(x), 0.0)) << x;
  }
  for (const double x : {709.9, 710.0, 1e300, kInf}) {
    EXPECT_EQ(simd::exp(x), kInf) << x;
  }
  EXPECT_LE(ulp_error(simd::exp(709.7), std::exp(static_cast<long double>(709.7))),
            kExpUlp);
  // NaN in, NaN out, whatever its sign.
  for (const double x : {kNaN, -kNaN}) {
    EXPECT_TRUE(std::isnan(simd::tanh(x)));
    EXPECT_TRUE(std::isnan(simd::sigmoid(x)));
    EXPECT_TRUE(std::isnan(simd::exp(x)));
  }
}

/// Pre-activations for the twin tests: edge values between ordinary ones,
/// so every lane position of a vector sees a NaN, an infinity, a zero and a
/// subnormal at some offset.
std::vector<double> twin_inputs() {
  std::vector<double> z = {0.5,   -0.0,  kNaN, 19.9, -kInf, 3.0,  kDenormMin,
                           -2.25, kInf,  -kNaN, 0.0, -700.0, 1e-9, -19.9,
                           0.17,  -0.35, 40.0, -6.5, 1e300, -1e-300};
  util::Rng rng(5);
  for (int i = 0; i < 60; ++i) z.push_back(rng.uniform(-8.0, 8.0));
  return z;
}

using LayerKernel = void (*)(const double*, std::size_t, double*, double*,
                             double*);

void expect_kernel_twin(LayerKernel vec, LayerKernel scalar, double (*twin)(double),
                        const char* what) {
  const std::vector<double> input = twin_inputs();
  constexpr double kSentinel = 12345.0;
  for (std::size_t offset = 0; offset + 9 <= input.size(); ++offset) {
    for (std::size_t n = 0; n <= 9; ++n) {
      const double* z = input.data() + offset;
      // One slot past n catches a kernel that writes beyond the layer.
      std::vector<double> y(n + 1, kSentinel), sp(n + 1, kSentinel),
          spp(n + 1, kSentinel);
      std::vector<double> ys(n + 1, kSentinel), sps(n + 1, kSentinel),
          spps(n + 1, kSentinel);
      std::vector<double> y_nc(n + 1, kSentinel), sp_nc(n + 1, kSentinel);
      vec(z, n, y.data(), sp.data(), spp.data());
      scalar(z, n, ys.data(), sps.data(), spps.data());
      vec(z, n, y_nc.data(), sp_nc.data(), nullptr);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_TRUE(same_bits(y[k], ys[k])) << what << " y n=" << n << " z=" << z[k];
        EXPECT_TRUE(same_bits(sp[k], sps[k])) << what << " sp n=" << n << " z=" << z[k];
        EXPECT_TRUE(same_bits(spp[k], spps[k])) << what << " spp n=" << n << " z=" << z[k];
        EXPECT_TRUE(same_bits(y_nc[k], y[k])) << what << " y n=" << n;
        EXPECT_TRUE(same_bits(sp_nc[k], sp[k])) << what << " sp n=" << n;
        EXPECT_TRUE(same_bits(y[k], twin(z[k]))) << what << " twin z=" << z[k];
      }
      EXPECT_EQ(y[n], kSentinel) << what << " n=" << n;
      EXPECT_EQ(sp[n], kSentinel) << what << " n=" << n;
      EXPECT_EQ(spp[n], kSentinel) << what << " n=" << n;
    }
  }
}

TEST(SimdMathTwin, ScalarKernelsMatchTheTwinFunctions) {
  const simd::Ops& scalar = simd::scalar_ops();
  expect_kernel_twin(scalar.tanh_layer, scalar.tanh_layer, simd::tanh, "tanh");
  expect_kernel_twin(scalar.sigmoid_layer, scalar.sigmoid_layer, simd::sigmoid,
                     "sigmoid");
}

TEST(SimdMathTwin, Avx2KernelsBitwiseEqualScalarTwinForLengths0To9) {
  if (!simd::available()) {
    GTEST_SKIP() << "no AVX2/FMA kernels on this build/CPU";
  }
  const simd::Ops& scalar = simd::scalar_ops();
  const simd::Ops& avx2 = *simd::avx2_ops();
  expect_kernel_twin(avx2.tanh_layer, scalar.tanh_layer, simd::tanh, "tanh");
  expect_kernel_twin(avx2.sigmoid_layer, scalar.sigmoid_layer, simd::sigmoid,
                     "sigmoid");
}

TEST(SimdMathTwin, ActivateLayerBitwiseEqualWithSimdOnAndOff) {
  if (!simd::available()) {
    GTEST_SKIP() << "no AVX2/FMA kernels on this build/CPU";
  }
  const bool was = simd::enabled();
  std::vector<double> z = twin_inputs();
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) z.push_back(rng.uniform(-40.0, 40.0));
  z.pop_back();  // an odd length: both kernels run their scalar tail
  for (const Activation a : kCandidateActivations) {
    std::vector<std::vector<double>> out[2];
    for (const bool on : {false, true}) {
      simd::set_enabled(on);
      std::vector<double> y(z.size()), sp(z.size()), spp(z.size());
      activate_layer(a, z, y, sp, spp);
      out[on ? 1 : 0] = {y, sp, spp};
    }
    for (std::size_t part = 0; part < 3; ++part) {
      for (std::size_t k = 0; k < z.size(); ++k) {
        EXPECT_TRUE(same_bits(out[0][part][k], out[1][part][k]))
            << to_string(a) << " output " << part << " at z=" << z[k];
      }
    }
  }
  simd::set_enabled(was);
}

}  // namespace
}  // namespace dpho::nn
