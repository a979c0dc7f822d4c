// The row-accumulating AVX2 backward-input kernel that the register-blocked
// nn::simd kernel replaced, kept verbatim as the bitwise oracle of
// dense_backward_input_test.cpp.  Built with -mavx2 -mfma like
// src/nn/simd_avx2.cpp and always at -O2, so its scalar tail contracts into
// an FMA as it did in the optimized builds (tests/CMakeLists.txt).
#pragma once

#include <cstddef>

namespace dpho::nn::oracle {

using BackwardInputFn = void (*)(const double* w, const double* zbar,
                                 std::size_t batch, std::size_t in,
                                 std::size_t out, double* ybar);

/// The oracle kernel, or nullptr when the build has no AVX2/FMA kernels.
BackwardInputFn row_accumulating_backward_input();

}  // namespace dpho::nn::oracle
