// AVX2 layer kernels for tanh and sigmoid: the lane-generic code of
// simd_math.hpp instantiated on four-lane __m256d vectors.  Built with
// -mavx2 -ffp-contract=off and without -mfma (src/nn/CMakeLists.txt), so no
// multiply/add pair here can be fused and every lane stays bitwise equal to
// the scalar twin, which also handles the n % 4 remainder.
#include "nn/simd_math.hpp"

#include "nn/simd.hpp"

#if defined(DPHO_SIMD_AVX2)

#include <immintrin.h>

namespace dpho::nn::simd {

namespace {

struct Vec4 {
  __m256d v;
  Vec4(double x) : v(_mm256_set1_pd(x)) {}  // implicit: constants broadcast
  explicit Vec4(__m256d x) : v(x) {}
};

inline Vec4 operator+(Vec4 a, Vec4 b) { return Vec4(_mm256_add_pd(a.v, b.v)); }
inline Vec4 operator-(Vec4 a, Vec4 b) { return Vec4(_mm256_sub_pd(a.v, b.v)); }
inline Vec4 operator*(Vec4 a, Vec4 b) { return Vec4(_mm256_mul_pd(a.v, b.v)); }
inline Vec4 operator/(Vec4 a, Vec4 b) { return Vec4(_mm256_div_pd(a.v, b.v)); }

inline __m256d sign_mask() { return _mm256_set1_pd(-0.0); }

inline Vec4 operator-(Vec4 a) { return Vec4(_mm256_xor_pd(a.v, sign_mask())); }
inline Vec4 min_of(Vec4 c, Vec4 v) { return Vec4(_mm256_min_pd(c.v, v.v)); }
inline Vec4 max_of(Vec4 c, Vec4 v) { return Vec4(_mm256_max_pd(c.v, v.v)); }
inline Vec4 abs_of(Vec4 x) { return Vec4(_mm256_andnot_pd(sign_mask(), x.v)); }
inline Vec4 copysign_of(Vec4 magnitude, Vec4 sign) {
  return Vec4(_mm256_or_pd(_mm256_andnot_pd(sign_mask(), magnitude.v),
                           _mm256_and_pd(sign_mask(), sign.v)));
}
inline Vec4 select_ge0(Vec4 x, Vec4 a, Vec4 b) {
  const __m256d ge = _mm256_cmp_pd(x.v, _mm256_setzero_pd(), _CMP_GE_OQ);
  return Vec4(_mm256_blendv_pd(b.v, a.v, ge));
}
inline Vec4 pow2_of(Vec4 k) {
  const __m256i bits =
      _mm256_castpd_si256(_mm256_add_pd(k.v, _mm256_set1_pd(0x1.8p52)));
  return Vec4(_mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(bits, _mm256_set1_epi64x(1023)), 52)));
}

template <void (*Terms)(Vec4, Vec4&, Vec4&, Vec4&),
          void (*Tail)(const double*, std::size_t, double*, double*, double*)>
void avx2_layer(const double* z, std::size_t n, double* y, double* sp,
                double* spp) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    Vec4 yv(0.0), spv(0.0), sppv(0.0);
    Terms(Vec4(_mm256_loadu_pd(z + k)), yv, spv, sppv);
    _mm256_storeu_pd(y + k, yv.v);
    _mm256_storeu_pd(sp + k, spv.v);
    if (spp != nullptr) _mm256_storeu_pd(spp + k, sppv.v);
  }
  Tail(z + k, n - k, y + k, sp + k, spp != nullptr ? spp + k : nullptr);
}

}  // namespace

void detail::avx2_tanh_layer(const double* z, std::size_t n, double* y,
                             double* sp, double* spp) {
  avx2_layer<tanh_terms<Vec4>, detail::scalar_tanh_layer>(z, n, y, sp, spp);
}

void detail::avx2_sigmoid_layer(const double* z, std::size_t n, double* y,
                                double* sp, double* spp) {
  avx2_layer<sigmoid_terms<Vec4>, detail::scalar_sigmoid_layer>(z, n, y, sp,
                                                                spp);
}

}  // namespace dpho::nn::simd

#endif  // DPHO_SIMD_AVX2
