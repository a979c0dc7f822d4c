// Unit tests for the batched analytic MLP kernels against two oracles:
//
//   * Mlp::forward            (values)
//   * the ad::Tape            (first derivatives, and -- via gradient-of-
//                              gradient -- the forward-over-reverse tangents)
//
// The tape builds every local derivative as new tape nodes, so a second
// gradient() call differentiates the first; that gives an independent check
// of the vjp_tangent kernel's mixed second-order terms without any finite
// differencing (FD only cross-checks the jvp, where it is well conditioned).
#include "nn/mlp_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ad/tape.hpp"
#include "nn/simd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::nn {
namespace {

constexpr std::size_t kIn = 3;
constexpr std::size_t kBatch = 6;

Mlp make_mlp(Activation activation, std::uint64_t seed) {
  Mlp mlp(kIn, {5, 4, 2}, activation, activation);
  util::Rng rng(seed);
  mlp.init_xavier(rng);
  return mlp;
}

std::vector<double> random_values(util::Rng& rng, std::size_t count,
                                  double lo = -1.5, double hi = 1.5) {
  std::vector<double> values(count);
  for (double& v : values) v = rng.uniform(lo, hi);
  return values;
}

/// Tape oracle for one sample: returns (d s / d theta, d s / d x) where
/// s = sum_k out_bar[k] y_k(x) + sum_i (d/dx_i sum_k out_bar[k] y_k) xdot_i
///   + sum_k out_bar_dot[k] y_k   -- i.e. the tangent of the vjp when the
/// xdot/out_bar_dot terms are enabled, or the plain vjp when they are zero.
struct TapeOracle {
  std::vector<double> param_grad;
  std::vector<double> x_grad;
};

TapeOracle tape_reference(const Mlp& mlp, std::span<const double> x,
                          std::span<const double> out_bar,
                          std::span<const double> xdot,
                          std::span<const double> out_bar_dot) {
  ad::Tape tape;
  const std::vector<ad::Var> params = mlp.bind_params(tape);
  std::vector<ad::Var> inputs;
  for (const double v : x) inputs.push_back(tape.input(v));
  const std::vector<ad::Var> y = mlp.forward(tape, params, inputs);

  ad::Var weighted = tape.constant(0.0);
  for (std::size_t k = 0; k < y.size(); ++k) weighted = weighted + out_bar[k] * y[k];

  ad::Var objective = weighted;
  if (!xdot.empty()) {
    // Directional derivative of the weighted output along xdot; adding it to
    // the objective makes the final gradient the tangent of the vjp.
    const std::vector<ad::Var> dydx = tape.gradient(weighted, inputs);
    ad::Var directional = tape.constant(0.0);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      directional = directional + dydx[i] * xdot[i];
    }
    objective = directional;
    if (!out_bar_dot.empty()) {
      for (std::size_t k = 0; k < y.size(); ++k) {
        objective = objective + out_bar_dot[k] * y[k];
      }
    }
  }

  TapeOracle oracle;
  for (const ad::Var g : tape.gradient(objective, params)) {
    oracle.param_grad.push_back(g.value());
  }
  for (const ad::Var g : tape.gradient(objective, inputs)) {
    oracle.x_grad.push_back(g.value());
  }
  return oracle;
}

class KernelActivations : public ::testing::TestWithParam<Activation> {};

INSTANTIATE_TEST_SUITE_P(All, KernelActivations,
                         ::testing::Values(Activation::kTanh, Activation::kSigmoid,
                                           Activation::kSoftplus, Activation::kRelu,
                                           Activation::kRelu6,
                                           Activation::kIdentity),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

/// Pins the kernel dispatch to scalar for one test's scope: bit-exactness
/// against the per-row reference only holds for the scalar table (the AVX2
/// forward reduces dot products in a different order; simd_parity_test.cpp
/// owns the vector-vs-scalar bound).
class ScopedScalarKernels {
 public:
  ScopedScalarKernels() : was_enabled_(simd::enabled()) {
    simd::set_enabled(false);
  }
  ~ScopedScalarKernels() { simd::set_enabled(was_enabled_); }

 private:
  bool was_enabled_;
};

TEST_P(KernelActivations, BatchedForwardMatchesPerRowForward) {
  ScopedScalarKernels scalar_only;
  const Mlp mlp = make_mlp(GetParam(), 7);
  util::Rng rng(11);
  const std::vector<double> x = random_values(rng, kBatch * kIn);
  MlpBatchCache cache;
  mlp_forward_batch(mlp, x, kBatch, cache, Curvature::kNone);
  for (std::size_t s = 0; s < kBatch; ++s) {
    const std::vector<double> expected =
        mlp.forward(std::span(x).subspan(s * kIn, kIn));
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_DOUBLE_EQ(cache.out()[s * mlp.output_width() + k], expected[k])
          << "sample " << s << " output " << k;
    }
  }
}

TEST_P(KernelActivations, NoCurvatureLeavesSecondDerivativesUntouched) {
  // A Curvature::kNone forward must not write sigma'' (inference and MD
  // skip it), while y and sigma' match a kCache forward bit for bit.
  const Mlp mlp = make_mlp(GetParam(), 13);
  util::Rng rng(17);
  const std::vector<double> x = random_values(rng, kBatch * kIn);
  MlpBatchCache cache;
  mlp_forward_batch(mlp, x, kBatch, cache, Curvature::kCache);
  const std::vector<std::vector<double>> y = cache.y;
  const std::vector<std::vector<double>> sp = cache.sp;
  for (std::vector<double>& layer : cache.spp) {
    std::fill(layer.begin(), layer.end(), -123.0);
  }
  mlp_forward_batch(mlp, x, kBatch, cache, Curvature::kNone);
  EXPECT_FALSE(cache.has_curvature);
  EXPECT_EQ(cache.y, y);
  EXPECT_EQ(cache.sp, sp);
  for (const std::vector<double>& layer : cache.spp) {
    for (const double v : layer) EXPECT_EQ(v, -123.0);
  }
}

TEST_P(KernelActivations, BackwardMatchesTapeGradients) {
  const Mlp mlp = make_mlp(GetParam(), 13);
  util::Rng rng(29);
  const std::vector<double> x = random_values(rng, kBatch * kIn);
  const std::vector<double> out_bar =
      random_values(rng, kBatch * mlp.output_width());

  MlpBatchCache cache;
  mlp_forward_batch(mlp, x, kBatch, cache, Curvature::kNone);
  std::vector<double> x_bar(kBatch * kIn);
  std::vector<double> param_grad(mlp.num_params(), 0.0);
  mlp_backward_batch(mlp, x, kBatch, cache, out_bar, x_bar, param_grad);

  // The batched kernel accumulates over samples; the tape oracle runs one
  // sample at a time, so sum its parameter gradients.
  std::vector<double> expected_params(mlp.num_params(), 0.0);
  for (std::size_t s = 0; s < kBatch; ++s) {
    const TapeOracle oracle = tape_reference(
        mlp, std::span(x).subspan(s * kIn, kIn),
        std::span(out_bar).subspan(s * mlp.output_width(), mlp.output_width()),
        {}, {});
    for (std::size_t p = 0; p < expected_params.size(); ++p) {
      expected_params[p] += oracle.param_grad[p];
    }
    for (std::size_t i = 0; i < kIn; ++i) {
      EXPECT_NEAR(x_bar[s * kIn + i], oracle.x_grad[i], 1e-12)
          << "sample " << s << " input " << i;
    }
  }
  for (std::size_t p = 0; p < expected_params.size(); ++p) {
    EXPECT_NEAR(param_grad[p], expected_params[p], 1e-11) << "param " << p;
  }
}

TEST(MlpKernels, JvpMatchesFiniteDifference) {
  const Mlp mlp = make_mlp(Activation::kTanh, 31);
  util::Rng rng(41);
  const std::vector<double> x = random_values(rng, kBatch * kIn);
  const std::vector<double> xdot = random_values(rng, kBatch * kIn);

  MlpBatchCache cache;
  mlp_forward_batch(mlp, x, kBatch, cache, Curvature::kNone);
  mlp_jvp_batch(mlp, xdot, kBatch, cache);

  const double h = 1e-6;
  for (std::size_t s = 0; s < kBatch; ++s) {
    std::vector<double> plus(x.begin() + s * kIn, x.begin() + (s + 1) * kIn);
    std::vector<double> minus = plus;
    for (std::size_t i = 0; i < kIn; ++i) {
      plus[i] += h * xdot[s * kIn + i];
      minus[i] -= h * xdot[s * kIn + i];
    }
    const std::vector<double> yp = mlp.forward(plus);
    const std::vector<double> ym = mlp.forward(minus);
    for (std::size_t k = 0; k < mlp.output_width(); ++k) {
      const double numeric = (yp[k] - ym[k]) / (2.0 * h);
      EXPECT_NEAR(cache.out_dot()[s * mlp.output_width() + k], numeric, 1e-7)
          << "sample " << s << " output " << k;
    }
  }
}

class SmoothKernelActivations : public ::testing::TestWithParam<Activation> {};

INSTANTIATE_TEST_SUITE_P(All, SmoothKernelActivations,
                         ::testing::Values(Activation::kTanh, Activation::kSigmoid,
                                           Activation::kSoftplus, Activation::kRelu),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST_P(SmoothKernelActivations, TangentVjpMatchesTapeSecondOrder) {
  // relu is included deliberately: its second derivative is defined as 0 in
  // BOTH engines (the tape differentiates its own step function to zero), so
  // parity must hold there too -- it checks the convention, not smoothness.
  const Mlp mlp = make_mlp(GetParam(), 17);
  util::Rng rng(53);
  const std::vector<double> x = random_values(rng, kBatch * kIn);
  const std::vector<double> xdot = random_values(rng, kBatch * kIn);
  const std::vector<double> out_bar =
      random_values(rng, kBatch * mlp.output_width());

  for (const bool with_out_bar_dot : {false, true}) {
    std::vector<double> out_bar_dot;
    if (with_out_bar_dot) {
      out_bar_dot = random_values(rng, kBatch * mlp.output_width());
    }

    MlpBatchCache cache;
    mlp_forward_batch(mlp, x, kBatch, cache, Curvature::kCache);
    std::vector<double> x_bar(kBatch * kIn);
    mlp_backward_batch(mlp, x, kBatch, cache, out_bar, x_bar, {});
    mlp_jvp_batch(mlp, xdot, kBatch, cache);
    std::vector<double> x_bar_dot(kBatch * kIn);
    std::vector<double> param_hvp(mlp.num_params(), 0.0);
    mlp_vjp_tangent_batch(mlp, x, xdot, kBatch, cache, out_bar_dot, x_bar_dot,
                          param_hvp);

    std::vector<double> expected_params(mlp.num_params(), 0.0);
    for (std::size_t s = 0; s < kBatch; ++s) {
      const std::size_t w = mlp.output_width();
      const TapeOracle oracle = tape_reference(
          mlp, std::span(x).subspan(s * kIn, kIn),
          std::span(out_bar).subspan(s * w, w),
          std::span(xdot).subspan(s * kIn, kIn),
          with_out_bar_dot ? std::span<const double>(out_bar_dot).subspan(s * w, w)
                           : std::span<const double>{});
      for (std::size_t p = 0; p < expected_params.size(); ++p) {
        expected_params[p] += oracle.param_grad[p];
      }
      for (std::size_t i = 0; i < kIn; ++i) {
        EXPECT_NEAR(x_bar_dot[s * kIn + i], oracle.x_grad[i], 1e-11)
            << "sample " << s << " input " << i
            << " out_bar_dot=" << with_out_bar_dot;
      }
    }
    for (std::size_t p = 0; p < expected_params.size(); ++p) {
      EXPECT_NEAR(param_hvp[p], expected_params[p], 1e-10)
          << "param " << p << " out_bar_dot=" << with_out_bar_dot;
    }
  }
}

TEST(MlpKernels, TangentVjpRequiresCurvatureCache) {
  const Mlp mlp = make_mlp(Activation::kTanh, 3);
  util::Rng rng(5);
  const std::vector<double> x = random_values(rng, kBatch * kIn);
  const std::vector<double> out_bar =
      random_values(rng, kBatch * mlp.output_width());
  MlpBatchCache cache;
  mlp_forward_batch(mlp, x, kBatch, cache, Curvature::kNone);
  std::vector<double> x_bar(kBatch * kIn);
  mlp_backward_batch(mlp, x, kBatch, cache, out_bar, x_bar, {});
  mlp_jvp_batch(mlp, x, kBatch, cache);
  std::vector<double> hvp(mlp.num_params());
  EXPECT_THROW(mlp_vjp_tangent_batch(mlp, x, x, kBatch, cache, {}, {}, hvp),
               util::ValueError);
}

TEST(MlpKernels, CacheSurvivesAlternatingCurvatureAndBatchSizes) {
  // One cache alternating between training-shaped (curvature, batch 6) and
  // inference-shaped (no curvature, batch 2) calls must keep giving the same
  // answers as fresh caches -- the regression this guards is stale sigma''
  // buffers being misread after a mode switch.
  const Mlp mlp = make_mlp(Activation::kSigmoid, 23);
  util::Rng rng(71);
  const std::vector<double> big = random_values(rng, kBatch * kIn);
  const std::vector<double> small = random_values(rng, 2 * kIn);
  const std::vector<double> big_bar = random_values(rng, kBatch * mlp.output_width());
  const std::vector<double> small_bar = random_values(rng, 2 * mlp.output_width());

  MlpBatchCache shared;
  std::vector<double> grad_shared(mlp.num_params(), 0.0);
  mlp_forward_batch(mlp, big, kBatch, shared, Curvature::kCache);
  mlp_backward_batch(mlp, big, kBatch, shared, big_bar, {}, grad_shared);

  mlp_forward_batch(mlp, small, 2, shared, Curvature::kNone);
  std::vector<double> x_bar_shared(2 * kIn);
  mlp_backward_batch(mlp, small, 2, shared, small_bar, x_bar_shared, {});

  MlpBatchCache fresh;
  mlp_forward_batch(mlp, small, 2, fresh, Curvature::kNone);
  std::vector<double> x_bar_fresh(2 * kIn);
  mlp_backward_batch(mlp, small, 2, fresh, small_bar, x_bar_fresh, {});

  EXPECT_EQ(x_bar_shared, x_bar_fresh);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t k = 0; k < mlp.output_width(); ++k) {
      EXPECT_DOUBLE_EQ(shared.out()[s * mlp.output_width() + k],
                       fresh.out()[s * mlp.output_width() + k]);
    }
  }
}

}  // namespace
}  // namespace dpho::nn
