// The AVX2 backward-input kernel keeps each sample's ybar in registers; its
// output must stay bitwise equal to the row-accumulating kernel it replaced
// (the oracle in dense_backward_input_oracle.cpp) for every column count --
// full 32-column blocks, every 4-column remainder and every scalar tail --
// and for adjoints that hit the zero skip (0 and -0), subnormals and large
// magnitudes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/dense_backward_input_oracle.hpp"
#include "nn/simd.hpp"
#include "util/rng.hpp"

namespace dpho::nn {
namespace {

/// One adjoint drawn from a mix of ordinary values and the edge cases.
double edge_value(util::Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2:  // subnormal
      return rng.uniform(-1.0, 1.0) * std::numeric_limits<double>::min();
    case 3: return std::numeric_limits<double>::denorm_min();
    case 4: return rng.uniform(-1.0, 1.0) * 1e250;
    default: return rng.uniform(-2.0, 2.0);
  }
}

TEST(DenseBackwardInput, RegisterKernelBitwiseEqualsRowAccumulatingOracle) {
  const oracle::BackwardInputFn reference =
      oracle::row_accumulating_backward_input();
  if (!simd::available() || reference == nullptr) {
    GTEST_SKIP() << "no AVX2/FMA kernels on this build/CPU";
  }
  const simd::Ops& avx2 = *simd::avx2_ops();
  util::Rng rng(20231017);
  for (const std::size_t in : {1, 2, 3, 4, 5, 7, 8, 9, 16, 24, 33, 64}) {
    for (const std::size_t out : {1, 8, 16, 24}) {
      std::vector<double> w(out * in);
      for (double& v : w) v = rng.uniform(-2.0, 2.0);
      for (std::size_t batch = 0; batch <= 5; ++batch) {
        std::vector<double> zbar(batch * out);
        for (double& v : zbar) v = edge_value(rng);
        // Both kernels overwrite ybar; start them from a pattern neither
        // writes, with one guard row past the end.
        std::vector<double> expected((batch + 1) * in, 7.0);
        std::vector<double> actual((batch + 1) * in, 7.0);
        reference(w.data(), zbar.data(), batch, in, out, expected.data());
        avx2.dense_backward_input(w.data(), zbar.data(), batch, in, out,
                                  actual.data());
        EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                              actual.size() * sizeof(double)),
                  0)
            << "in " << in << " out " << out << " batch " << batch;
      }
    }
  }
}

TEST(DenseBackwardInput, ZeroAdjointRowsGivePositiveZero) {
  // An all-zero (or all -0) adjoint row skips every output: ybar is +0.
  if (!simd::available()) {
    GTEST_SKIP() << "no AVX2/FMA kernels on this build/CPU";
  }
  const simd::Ops& avx2 = *simd::avx2_ops();
  const std::size_t in = 37;
  const std::size_t out = 3;
  const std::vector<double> w(out * in, 1.5);
  const std::vector<double> zbar = {0.0, -0.0, 0.0, -0.0, -0.0, -0.0};
  std::vector<double> ybar(2 * in, -1.0);
  avx2.dense_backward_input(w.data(), zbar.data(), 2, in, out, ybar.data());
  for (const double v : ybar) {
    EXPECT_EQ(v, 0.0);
    EXPECT_FALSE(std::signbit(v));
  }
}

}  // namespace
}  // namespace dpho::nn
