// The one exp / tanh / sigmoid of the product, written once over a lane type.
//
// Internal to nn::simd.  Every function below is a template over a lane type
// V: `double` for the scalar twin (simd_math.cpp) and a four-lane __m256d
// wrapper for the AVX2 layer kernels (simd_avx2_math.cpp).  Both spell the
// same operations in the same order, so each lane of the vector kernel is
// bitwise equal to the scalar twin on the same element -- provided neither
// translation unit lets the compiler contract a multiply and an add into an
// FMA.  Both are built with -ffp-contract=off, and the AVX2 one without
// -mfma (src/nn/CMakeLists.txt).
//
// A lane type supplies +, -, * and / (with double operands broadcast), unary
// minus, and the lane operations declared below for double: min_of(c, v) is
// `c < v ? c : v` and max_of(c, v) is `c > v ? c : v` (so a NaN v passes
// through, as minsd/minpd do), abs_of, copysign_of, select_ge0(x, a, b) is
// `x >= 0 ? a : b`, and pow2_of(k) is 2^k for an integral k in
// [-1022, 1023], built in the exponent bits.
//
// The shared core reduces x = k ln2 + r with |r| <= ln2/2 (Cody-Waite: ln2
// split into a hi part with 32 trailing zero bits, so k*ln2_hi is exact, and
// a lo part), and evaluates expm1(r) = r + r^2 q(r) with q the degree-11
// Taylor polynomial (truncation error below 0.2 ulp on the interval) plus
// the rounding error of r.  Each function then rebuilds its result from the
// exact parts 2^k and 2^k expm1(r), rounding once per numerator and
// denominator.  Errors against a long double reference over the whole
// double range (tests/nn/simd_math_test.cpp): exp <= 1 ulp; tanh and
// sigmoid <= 2.5 ulp.
//
// There is no separate small-|x| branch because none is needed: for
// |x| < ln2/4 the reduction gives k = 0 and r = x exactly, so tanh's
// numerator is expm1(-2|x|) itself and tanh keeps its relative accuracy down
// through the subnormals (tanh(x) == x there, sign of zero kept).  sigmoid
// is near 1/2 around 0 and needs no such care.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace dpho::nn::simd {

// ---- lane operations for the scalar lane type -----------------------------

inline double min_of(double c, double v) { return c < v ? c : v; }
inline double max_of(double c, double v) { return c > v ? c : v; }
inline double abs_of(double x) { return std::fabs(x); }
inline double copysign_of(double magnitude, double sign) {
  return std::copysign(magnitude, sign);
}
inline double select_ge0(double x, double a, double b) {
  return x >= 0.0 ? a : b;
}
/// 2^k from the exponent bits: adding 1.5 * 2^52 puts k in the low mantissa
/// bits; the shift keeps only k + 1023 in the exponent field.
inline double pow2_of(double k) {
  return std::bit_cast<double>(
      (std::bit_cast<std::uint64_t>(k + 0x1.8p52) + 1023u) << 52);
}

namespace math {

inline constexpr double kRoundMagic = 0x1.8p52;  // x + m - m rounds to integer
inline constexpr double kInvLn2 = 0x1.71547652b82fep0;
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;  // 32 trailing zeros
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
/// Past this |x|, tanh(x) rounds to +-1 (tanh(19.1) already does).
inline constexpr double kTanhSaturation = 20.0;
/// exp's argument clamp: exp(-750) underflows to 0, exp(750) overflows.
inline constexpr double kExpClamp = 750.0;
/// 2^k is applied as 2^k1 * 2^(k - k1) with |k1| <= 1000, so both factors
/// are normal numbers across the whole clamped range.
inline constexpr double kScaleSplit = 1000.0;

/// 1/n! for n = 2..13: q(r) = sum c[n-2] r^(n-2).
inline constexpr double kExpm1Coeff[12] = {
    1.0 / 2.0,         1.0 / 6.0,          1.0 / 24.0,
    1.0 / 120.0,       1.0 / 720.0,        1.0 / 5040.0,
    1.0 / 40320.0,     1.0 / 362880.0,     1.0 / 3628800.0,
    1.0 / 39916800.0,  1.0 / 479001600.0,  1.0 / 6227020800.0};

template <class V>
struct Reduced {
  V k;  // round(x / ln2), an integral value
  V p;  // expm1(x - k ln2)
};

/// x = k ln2 + r, p = expm1(r).  |x| must stay below ~2^20 * ln2 (callers
/// clamp), so k*ln2_hi is exact.
template <class V>
Reduced<V> reduce(V x) {
  const V k = (x * kInvLn2 + kRoundMagic) - kRoundMagic;
  const V hi = x - k * kLn2Hi;  // exact
  const V lo = k * kLn2Lo;
  const V r = hi - lo;
  const V c = (hi - r) - lo;  // the rounding error of r
  // q by Estrin's scheme: six independent pairs, then r^2, r^4 and r^8
  // combine them, so the dependency chain is a third of Horner's.
  const V r2 = r * r;
  const V r4 = r2 * r2;
  const V r8 = r4 * r4;
  const auto pair = [&](int i) {
    return kExpm1Coeff[i] + r * kExpm1Coeff[i + 1];
  };
  const V q = ((pair(0) + r2 * pair(2)) + r4 * (pair(4) + r2 * pair(6))) +
              r8 * (pair(8) + r2 * pair(10));
  return {k, r + (r2 * q + c)};
}

template <class V>
struct ExpParts {
  V s1;  // 2^k1
  V s2;  // 2^(k - k1), 1 unless exp is near under- or overflow
  V p;   // expm1(r)
};

template <class V>
ExpParts<V> exp_parts(V x) {
  const V clamped = max_of(V(-kExpClamp), min_of(V(kExpClamp), x));
  const Reduced<V> red = reduce(clamped);
  const V k1 = max_of(V(-kScaleSplit), min_of(V(kScaleSplit), red.k));
  return {pow2_of(k1), pow2_of(red.k - k1), red.p};
}

/// e^x, one rounding to the normal range and one more into the subnormals.
template <class V>
V exp(V x) {
  const ExpParts<V> e = exp_parts(x);
  return (e.s1 + e.s1 * e.p) * e.s2;
}

/// tanh(x) = sign(x) (1 - e^-2a) / (1 + e^-2a), a = |x|, with 1 - e^-2a and
/// 1 + e^-2a each rounded once from 2^k and 2^k expm1(r).
template <class V>
V tanh(V x) {
  const V a = min_of(V(kTanhSaturation), abs_of(x));
  const Reduced<V> red = reduce(-(a + a));
  const V s = pow2_of(red.k);
  const V sp = s * red.p;
  return copysign_of(((1.0 - s) - sp) / ((1.0 + s) + sp), x);
}

/// sigmoid(x) = 1 / (1 + e^-a) for x >= 0 and e^-a / (1 + e^-a) below, a = |x|,
/// so the exponential never overflows.
template <class V>
V sigmoid(V x) {
  const ExpParts<V> e = exp_parts(-abs_of(x));
  const V sp = e.s1 * e.p;
  const V num = select_ge0(x, V(1.0), (e.s1 + sp) * e.s2);
  return num / ((1.0 + e.s1) + sp);
}

}  // namespace math

// ---- the layer kernels behind Ops::tanh_layer / Ops::sigmoid_layer --------

/// One layer's activation terms.  tanh: y = t, sp = 1 - t^2,
/// spp = -2 t sp.  sigmoid: y = s, sp = s (1 - s), spp = sp (1 - 2 s).  These
/// spell the expressions of nn::derivative / nn::second_derivative.
template <class V>
void tanh_terms(V x, V& y, V& sp, V& spp) {
  y = math::tanh(x);
  sp = 1.0 - y * y;
  spp = (-2.0 * y) * sp;
}

template <class V>
void sigmoid_terms(V x, V& y, V& sp, V& spp) {
  y = math::sigmoid(x);
  sp = y * (1.0 - y);
  spp = sp * (1.0 - 2.0 * y);
}

}  // namespace dpho::nn::simd
