// Runtime-dispatched primitives for the batched MLP kernels.
//
// Every hot loop in nn/mlp_kernels.cpp is one of four dense row operations
// over sample-major SoA batches or one of two whole-layer activation passes
// (tanh and sigmoid; nn::activate_layer).  This header exposes them behind
// a function table that is resolved once at first use:
//
//   * an AVX2/FMA implementation (src/nn/simd_avx2.cpp for the dense rows and
//     src/nn/simd_avx2_math.cpp for the activations, compiled with -mavx2
//     when DPHO_ENABLE_SIMD is ON) selected when the running CPU reports
//     both features, and
//   * a portable scalar fallback that reproduces the original dense loops
//     exactly and runs the activations through the scalar twin below.
//
// Dispatch can be forced to scalar with the environment variable
// DPHO_SIMD=off (read once at first use) or flipped at runtime with
// set_enabled() -- which is how the SIMD parity tests and the
// bench_model_kernels SIMD-on/off matrix drive both paths in one process.
//
// Determinism: the AVX2 forward kernels split dot products across vector
// lanes, so their reduction order differs from scalar and results can differ
// from the scalar path by FMA-contraction-sized rounding (the parity tests
// pin the tolerance).  The activation entries are different: tanh, sigmoid
// and exp exist once, as lane-generic code (simd_math.hpp) that the AVX2
// kernel and the scalar twin both instantiate, so every activation output is
// bitwise identical with SIMD on and off.  That holds only while neither
// side contracts a multiply and an add into an FMA: simd_math.cpp,
// simd_avx2_math.cpp and activation.cpp are built with -ffp-contract=off and
// the AVX2 activation unit without -mfma.  Within either path, results are
// bit-reproducible and independent of thread count: dispatch state is
// process-global and the kernels carry no per-thread state.
#pragma once

#include <cstddef>

namespace dpho::nn::simd {

/// The operation table one dispatch level provides.  All batches are
/// sample-major: x is batch rows of `in` values, z is batch rows of `out`
/// values, weights are row-major [out][in].
struct Ops {
  /// z[s,o] = (bias ? bias[o] : 0) + sum_i w[o,i] x[s,i]
  void (*dense_forward)(const double* w, const double* bias, const double* x,
                        std::size_t batch, std::size_t in, std::size_t out,
                        double* z);
  /// ybar[s,i] = sum_o w[o,i] zbar[s,o]   (overwrites ybar)
  void (*dense_backward_input)(const double* w, const double* zbar,
                               std::size_t batch, std::size_t in,
                               std::size_t out, double* ybar);
  /// wgrad[o,i] += sum_s zbar[s,o] x[s,i];  bgrad[o] += sum_s zbar[s,o]
  void (*dense_param_grad)(const double* x, const double* zbar,
                           std::size_t batch, std::size_t in, std::size_t out,
                           double* wgrad, double* bgrad);
  /// whvp[o,i] += sum_s (zbardot[s,o] x[s,i] + zbar[s,o] xdot[s,i]);
  /// bhvp[o] += sum_s zbardot[s,o]   (the d/de of dense_param_grad)
  void (*dense_param_grad_tangent)(const double* x, const double* xdot,
                                   const double* zbar, const double* zbardot,
                                   std::size_t batch, std::size_t in,
                                   std::size_t out, double* whvp, double* bhvp);
  /// y[k] = tanh(z[k]), sp[k] = 1 - y[k]^2 and, when spp is not null,
  /// spp[k] = -2 y[k] sp[k]; bitwise equal to the scalar twin tanh()
  /// element by element.  No output may alias z.
  void (*tanh_layer)(const double* z, std::size_t n, double* y, double* sp,
                     double* spp);
  /// y[k] = sigmoid(z[k]), sp[k] = y[k] (1 - y[k]) and, when spp is not null,
  /// spp[k] = sp[k] (1 - 2 y[k]); bitwise equal to the scalar twin.
  void (*sigmoid_layer)(const double* z, std::size_t n, double* y,
                        double* sp, double* spp);
  const char* name;  // "avx2-fma" or "scalar"
};

/// The scalar twins of the activation kernels: the product's one tanh,
/// sigmoid and exp (libm's remain only as test oracles).  Each is bitwise
/// equal to one lane of the AVX2 kernel on the same argument.  Accuracy
/// against a long double reference: exp <= 1 ulp, tanh and sigmoid
/// <= 2.5 ulp.  NaN in gives NaN out; tanh keeps the sign of zero and is
/// exactly +-1 from |x| >= 20 on; sigmoid is exactly 0 and 1 at -inf and
/// +inf.
double tanh(double x);
double sigmoid(double x);
double exp(double x);

/// The currently dispatched table (resolved lazily on first call).
const Ops& active();

/// True when an AVX2/FMA table was compiled in AND the running CPU supports
/// it (independent of whether it is currently enabled).
bool available();

/// True when the active table is the vector one.
bool enabled();

/// Force the vector (true) or scalar (false) table.  Enabling is a no-op
/// when available() is false; returns the resulting enabled() state.  Not
/// intended for use while kernels are running on other threads.
bool set_enabled(bool on);

/// Name of the active table ("avx2-fma" / "scalar").
const char* level_name();

/// The scalar table (always present; the parity oracle).
const Ops& scalar_ops();

/// The AVX2 table, or nullptr when not compiled in (DPHO_ENABLE_SIMD=OFF).
/// Internal to the dispatcher and the tests; callers must check the CPU via
/// available() before using it.
const Ops* avx2_ops();

namespace detail {
// The activation entries of the two tables, defined in simd_math.cpp and
// simd_avx2_math.cpp; everything else reaches them through the tables.
void scalar_tanh_layer(const double* z, std::size_t n, double* y, double* sp,
                       double* spp);
void scalar_sigmoid_layer(const double* z, std::size_t n, double* y,
                          double* sp, double* spp);
void avx2_tanh_layer(const double* z, std::size_t n, double* y, double* sp,
                     double* spp);
void avx2_sigmoid_layer(const double* z, std::size_t n, double* y, double* sp,
                        double* spp);
}  // namespace detail

}  // namespace dpho::nn::simd
