#include "nn/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace dpho::nn::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar fallback: plain loops, identical arithmetic (and skip conditions) to
// the original mlp_kernels inner loops, so a scalar build reproduces the
// pre-SIMD numbers bit for bit.

void scalar_dense_forward(const double* w, const double* bias, const double* x,
                          std::size_t batch, std::size_t in, std::size_t out,
                          double* z) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* xs = x + s * in;
    double* zs = z + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      double acc = bias != nullptr ? bias[o] : 0.0;
      const double* wrow = w + o * in;
      for (std::size_t i = 0; i < in; ++i) acc += wrow[i] * xs[i];
      zs[o] = acc;
    }
  }
}

void scalar_dense_backward_input(const double* w, const double* zbar,
                                 std::size_t batch, std::size_t in,
                                 std::size_t out, double* ybar) {
  std::memset(ybar, 0, batch * in * sizeof(double));
  for (std::size_t s = 0; s < batch; ++s) {
    const double* zrow = zbar + s * out;
    double* yrow = ybar + s * in;
    for (std::size_t o = 0; o < out; ++o) {
      const double z = zrow[o];
      if (z == 0.0) continue;
      const double* wrow = w + o * in;
      for (std::size_t i = 0; i < in; ++i) yrow[i] += z * wrow[i];
    }
  }
}

void scalar_dense_param_grad(const double* x, const double* zbar,
                             std::size_t batch, std::size_t in, std::size_t out,
                             double* wgrad, double* bgrad) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* xs = x + s * in;
    const double* zrow = zbar + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      const double z = zrow[o];
      bgrad[o] += z;
      if (z == 0.0) continue;
      double* wrow = wgrad + o * in;
      for (std::size_t i = 0; i < in; ++i) wrow[i] += z * xs[i];
    }
  }
}

void scalar_dense_param_grad_tangent(const double* x, const double* xdot,
                                     const double* zbar, const double* zbardot,
                                     std::size_t batch, std::size_t in,
                                     std::size_t out, double* whvp,
                                     double* bhvp) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* xs = x + s * in;
    const double* xds = xdot + s * in;
    const double* zdrow = zbardot + s * out;
    const double* zrow = zbar + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      const double zd = zdrow[o];
      const double z = zrow[o];
      bhvp[o] += zd;
      double* wrow = whvp + o * in;
      for (std::size_t i = 0; i < in; ++i) wrow[i] += zd * xs[i] + z * xds[i];
    }
  }
}

constexpr Ops kScalarOps = {scalar_dense_forward, scalar_dense_backward_input,
                            scalar_dense_param_grad,
                            scalar_dense_param_grad_tangent,
                            detail::scalar_tanh_layer,
                            detail::scalar_sigmoid_layer, "scalar"};

bool cpu_supports_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool env_disables_simd() {
  const char* env = std::getenv("DPHO_SIMD");
  if (env == nullptr) return false;
  return std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
         std::strcmp(env, "scalar") == 0;
}

std::atomic<const Ops*> g_active{nullptr};

const Ops* resolve_initial() {
  if (avx2_ops() != nullptr && cpu_supports_avx2_fma() && !env_disables_simd()) {
    return avx2_ops();
  }
  return &kScalarOps;
}

}  // namespace

const Ops& scalar_ops() { return kScalarOps; }

#if !defined(DPHO_SIMD_AVX2)
const Ops* avx2_ops() { return nullptr; }
#endif

const Ops& active() {
  const Ops* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    const Ops* resolved = resolve_initial();
    // Several threads may race the first resolution; they all compute the
    // same answer, so the losing CAS just keeps the winner's value.
    g_active.compare_exchange_strong(ops, resolved, std::memory_order_acq_rel);
    ops = g_active.load(std::memory_order_acquire);
  }
  return *ops;
}

bool available() { return avx2_ops() != nullptr && cpu_supports_avx2_fma(); }

bool enabled() { return &active() != &kScalarOps; }

bool set_enabled(bool on) {
  if (on && available()) {
    g_active.store(avx2_ops(), std::memory_order_release);
  } else {
    g_active.store(&kScalarOps, std::memory_order_release);
  }
  return enabled();
}

const char* level_name() { return active().name; }

}  // namespace dpho::nn::simd
