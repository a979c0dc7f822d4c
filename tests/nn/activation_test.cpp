#include "nn/activation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ad/tape.hpp"
#include "util/error.hpp"

namespace dpho::nn {
namespace {

class ActivationSuite : public ::testing::TestWithParam<Activation> {};

INSTANTIATE_TEST_SUITE_P(AllFive, ActivationSuite,
                         ::testing::Values(Activation::kRelu, Activation::kRelu6,
                                           Activation::kSoftplus, Activation::kSigmoid,
                                           Activation::kTanh),
                         [](const auto& param_info) { return to_string(param_info.param); });

TEST_P(ActivationSuite, StringRoundTrip) {
  const Activation a = GetParam();
  EXPECT_EQ(activation_from_string(to_string(a)), a);
}

TEST_P(ActivationSuite, DoubleAndTapePathsAgree) {
  const Activation a = GetParam();
  for (double x : {-7.0, -1.0, -0.1, 0.5, 3.0, 7.0}) {
    ad::Tape tape;
    const ad::Var v = apply(a, tape.input(x));
    EXPECT_NEAR(v.value(), apply(a, x), 1e-12) << to_string(a) << " at " << x;
  }
}

TEST_P(ActivationSuite, DerivativeMatchesFiniteDifference) {
  const Activation a = GetParam();
  // Avoid the relu/relu6 kinks at 0 and 6.
  for (double x : {-3.3, -0.7, 0.4, 2.1, 5.2, 7.7}) {
    const double h = 1e-6;
    const double numeric = (apply(a, x + h) - apply(a, x - h)) / (2.0 * h);
    EXPECT_NEAR(derivative(a, x), numeric, 1e-5) << to_string(a) << " at " << x;
  }
}

TEST_P(ActivationSuite, MonotoneNondecreasing) {
  const Activation a = GetParam();
  double prev = apply(a, -10.0);
  for (double x = -10.0; x <= 10.0; x += 0.25) {
    const double y = apply(a, x);
    EXPECT_GE(y, prev - 1e-12) << to_string(a) << " at " << x;
    prev = y;
  }
}

TEST(Activation, ReluClampsNegative) {
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu, 2.0), 2.0);
}

TEST(Activation, Relu6ClampsBothEnds) {
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu6, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu6, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu6, 8.0), 6.0);
}

TEST(Activation, SoftplusStableAtExtremes) {
  EXPECT_NEAR(apply(Activation::kSoftplus, 100.0), 100.0, 1e-9);
  EXPECT_NEAR(apply(Activation::kSoftplus, -100.0), 0.0, 1e-9);
  EXPECT_TRUE(std::isfinite(apply(Activation::kSoftplus, 700.0)));
}

TEST(Activation, SigmoidStableAtExtremes) {
  EXPECT_NEAR(apply(Activation::kSigmoid, 50.0), 1.0, 1e-12);
  EXPECT_NEAR(apply(Activation::kSigmoid, -50.0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(apply(Activation::kSigmoid, 0.0), 0.5);
}

TEST(Activation, IdentityPassesThrough) {
  EXPECT_DOUBLE_EQ(apply(Activation::kIdentity, -3.7), -3.7);
  EXPECT_DOUBLE_EQ(derivative(Activation::kIdentity, 9.0), 1.0);
}

TEST(Activation, FromStringAliases) {
  EXPECT_EQ(activation_from_string("none"), Activation::kIdentity);
  EXPECT_EQ(activation_from_string("linear"), Activation::kIdentity);
}

TEST(Activation, UnknownNameThrows) {
  EXPECT_THROW(activation_from_string("gelu"), util::ValueError);
  EXPECT_THROW(activation_from_string(""), util::ValueError);
}

TEST(Activation, CandidateListMatchesPaperDecodeOrder) {
  ASSERT_EQ(kNumCandidateActivations, 5);
  EXPECT_EQ(kCandidateActivations[0], Activation::kRelu);
  EXPECT_EQ(kCandidateActivations[1], Activation::kRelu6);
  EXPECT_EQ(kCandidateActivations[2], Activation::kSoftplus);
  EXPECT_EQ(kCandidateActivations[3], Activation::kSigmoid);
  EXPECT_EQ(kCandidateActivations[4], Activation::kTanh);
}

// activate_layer against the scalar oracle, bit for bit.  The grid holds
// the branch points and kinks of every activation (0, 6, +-30), the values
// one ulp either side of each, signed zeros, subnormals, +-700 (exp near
// overflow), infinities, a NaN, and a dense sweep across [-40, 40].
std::vector<double> oracle_grid() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> grid = {
      0.0, -0.0, 6.0, -6.0, 30.0, -30.0, 700.0, -700.0, kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 2.0,
      -std::numeric_limits<double>::min() / 2.0,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max()};
  for (const double kink : {0.0, 6.0, -6.0, 30.0, -30.0}) {
    grid.push_back(std::nextafter(kink, -kInf));
    grid.push_back(std::nextafter(kink, kInf));
  }
  for (double x = -40.0; x <= 40.0; x += 0.0390625) grid.push_back(x);
  return grid;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class LayerPassSuite : public ::testing::TestWithParam<Activation> {};

INSTANTIATE_TEST_SUITE_P(AllSix, LayerPassSuite,
                         ::testing::Values(Activation::kRelu, Activation::kRelu6,
                                           Activation::kSoftplus, Activation::kSigmoid,
                                           Activation::kTanh, Activation::kIdentity),
                         [](const auto& param_info) { return to_string(param_info.param); });

TEST_P(LayerPassSuite, BitwiseEqualToScalarOracle) {
  const Activation a = GetParam();
  const std::vector<double> z = oracle_grid();
  std::vector<double> y(z.size()), sp(z.size()), spp(z.size());
  std::vector<double> y_first(z.size()), sp_first(z.size());
  activate_layer(a, z, y, sp, spp);
  activate_layer(a, z, y_first, sp_first, {});  // no curvature
  for (std::size_t k = 0; k < z.size(); ++k) {
    const double x = z[k];
    EXPECT_TRUE(same_bits(y[k], apply(a, x))) << to_string(a) << " y at " << x;
    EXPECT_TRUE(same_bits(sp[k], derivative(a, x)))
        << to_string(a) << " sp at " << x;
    EXPECT_TRUE(same_bits(spp[k], second_derivative(a, x)))
        << to_string(a) << " spp at " << x;
    EXPECT_TRUE(same_bits(y_first[k], y[k])) << to_string(a) << " y at " << x;
    EXPECT_TRUE(same_bits(sp_first[k], sp[k])) << to_string(a) << " sp at " << x;
  }
}

TEST(LayerPass, SizeMismatchThrows) {
  const std::vector<double> z(4, 0.5);
  std::vector<double> ok(4), short_buf(3);
  EXPECT_THROW(activate_layer(Activation::kTanh, z, short_buf, ok, {}),
               util::ValueError);
  EXPECT_THROW(activate_layer(Activation::kTanh, z, ok, short_buf, {}),
               util::ValueError);
  std::vector<double> y(4), sp(4);
  EXPECT_THROW(activate_layer(Activation::kTanh, z, y, sp, short_buf),
               util::ValueError);
  EXPECT_NO_THROW(activate_layer(Activation::kTanh, z, y, sp, {}));
}

}  // namespace
}  // namespace dpho::nn
