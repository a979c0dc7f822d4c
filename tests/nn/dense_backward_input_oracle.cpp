#include "nn/dense_backward_input_oracle.hpp"

#if defined(DPHO_SIMD_AVX2)

#include <immintrin.h>

namespace dpho::nn::oracle {

namespace {

void avx2_dense_backward_input(const double* w, const double* zbar,
                               std::size_t batch, std::size_t in,
                               std::size_t out, double* ybar) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* zrow = zbar + s * out;
    double* yrow = ybar + s * in;
    std::size_t i = 0;
    const __m256d zero = _mm256_setzero_pd();
    for (; i + 4 <= in; i += 4) _mm256_storeu_pd(yrow + i, zero);
    for (; i < in; ++i) yrow[i] = 0.0;
    for (std::size_t o = 0; o < out; ++o) {
      const double z = zrow[o];
      if (z == 0.0) continue;
      const double* wrow = w + o * in;
      const __m256d zv = _mm256_set1_pd(z);
      i = 0;
      for (; i + 4 <= in; i += 4) {
        const __m256d yv = _mm256_fmadd_pd(zv, _mm256_loadu_pd(wrow + i),
                                           _mm256_loadu_pd(yrow + i));
        _mm256_storeu_pd(yrow + i, yv);
      }
      for (; i < in; ++i) yrow[i] += z * wrow[i];
    }
  }
}

}  // namespace

BackwardInputFn row_accumulating_backward_input() {
  return avx2_dense_backward_input;
}

}  // namespace dpho::nn::oracle

#else

namespace dpho::nn::oracle {

BackwardInputFn row_accumulating_backward_input() { return nullptr; }

}  // namespace dpho::nn::oracle

#endif  // DPHO_SIMD_AVX2
