#include "nn/mlp_kernels.hpp"

#include <algorithm>

#include "nn/activation.hpp"
#include "nn/simd.hpp"
#include "util/error.hpp"

namespace dpho::nn {

namespace {

std::size_t max_width(const Mlp& mlp) {
  std::size_t w = mlp.input_width();
  for (const LayerSpec& layer : mlp.layers()) w = std::max(w, layer.out);
  return w;
}

void size_layer_buffers(std::vector<std::vector<double>>& buffers,
                        const std::vector<LayerSpec>& layers, std::size_t batch) {
  buffers.resize(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    buffers[l].resize(batch * layers[l].out);
  }
}

void reserve_layer_buffers(std::vector<std::vector<double>>& buffers,
                           const std::vector<LayerSpec>& layers,
                           std::size_t batch) {
  buffers.resize(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    buffers[l].reserve(batch * layers[l].out);
  }
}

}  // namespace

void mlp_reserve_batch(const Mlp& mlp, std::size_t batch,
                       MlpBatchCache& cache) {
  const auto& layers = mlp.layers();
  reserve_layer_buffers(cache.y, layers, batch);
  reserve_layer_buffers(cache.sp, layers, batch);
  reserve_layer_buffers(cache.zbar, layers, batch);
  cache.bar_a.reserve(batch * max_width(mlp));
  cache.bar_b.reserve(batch * max_width(mlp));
}

void mlp_forward_batch(const Mlp& mlp, std::span<const double> x,
                       std::size_t batch, MlpBatchCache& cache,
                       Curvature curvature) {
  const auto& layers = mlp.layers();
  if (x.size() != batch * mlp.input_width()) {
    throw util::ValueError("mlp_forward_batch: input size mismatch");
  }
  cache.batch = batch;
  cache.has_curvature = curvature == Curvature::kCache;
  size_layer_buffers(cache.y, layers, batch);
  size_layer_buffers(cache.sp, layers, batch);
  if (cache.has_curvature) {
    size_layer_buffers(cache.spp, layers, batch);
  }
  cache.bar_a.resize(batch * max_width(mlp));
  cache.bar_b.resize(batch * max_width(mlp));

  const simd::Ops& ops = simd::active();
  const double* params = mlp.params().data();
  std::size_t offset = 0;
  const double* in_rows = x.data();
  // bar_a doubles as the pre-activation scratch z here; the backward pass
  // only uses it after this pass has fully consumed it.
  double* z = cache.bar_a.data();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const LayerSpec& layer = layers[l];
    const double* weights = params + offset;
    const double* biases = weights + layer.in * layer.out;
    ops.dense_forward(weights, biases, in_rows, batch, layer.in, layer.out, z);
    activate_layer(layer.activation,
                   std::span<const double>(z, batch * layer.out), cache.y[l],
                   cache.sp[l],
                   cache.has_curvature ? std::span<double>(cache.spp[l])
                                       : std::span<double>());
    in_rows = cache.y[l].data();
    offset += layer.in * layer.out + layer.out;
  }
}

void mlp_backward_batch(const Mlp& mlp, std::span<const double> x,
                        std::size_t batch, MlpBatchCache& cache,
                        std::span<const double> out_bar, std::span<double> x_bar,
                        std::span<double> param_grad) {
  const auto& layers = mlp.layers();
  if (cache.batch != batch || cache.y.size() != layers.size()) {
    throw util::ValueError("mlp_backward_batch: stale cache, run forward first");
  }
  if (out_bar.size() != batch * mlp.output_width()) {
    throw util::ValueError("mlp_backward_batch: out_bar size mismatch");
  }
  if (!param_grad.empty() && param_grad.size() != mlp.num_params()) {
    throw util::ValueError("mlp_backward_batch: param_grad size mismatch");
  }
  size_layer_buffers(cache.zbar, layers, batch);
  const bool fold_curvature = cache.has_curvature;

  const simd::Ops& ops = simd::active();
  const double* params = mlp.params().data();
  const double* ybar = out_bar.data();
  // Parameter offsets are front-to-back; walking layers back-to-front, peel
  // each layer's block off the total instead of materializing an offset
  // table (this path must stay allocation-free for the MD sessions).
  std::size_t offset = mlp.num_params();
  for (std::size_t l = layers.size(); l-- > 0;) {
    const LayerSpec& layer = layers[l];
    offset -= layer.in * layer.out + layer.out;
    const double* sp = cache.sp[l].data();
    double* spp = fold_curvature ? cache.spp[l].data() : nullptr;
    double* zbar = cache.zbar[l].data();
    for (std::size_t k = 0; k < batch * layer.out; ++k) {
      zbar[k] = sp[k] * ybar[k];
      // s''(z) . ybar, the curvature factor the tangent pass multiplies by
      // zdot; folding it here keeps that pass free of ybar storage.
      if (spp != nullptr) spp[k] *= ybar[k];
    }
    const double* xin = l == 0 ? x.data() : cache.y[l - 1].data();
    if (!param_grad.empty()) {
      double* wgrad = param_grad.data() + offset;
      double* bgrad = wgrad + layer.in * layer.out;
      ops.dense_param_grad(xin, zbar, batch, layer.in, layer.out, wgrad, bgrad);
    }
    if (l > 0 || !x_bar.empty()) {
      double* dest = l == 0 ? x_bar.data() : cache.bar_a.data();
      ops.dense_backward_input(params + offset, zbar, batch, layer.in,
                               layer.out, dest);
      ybar = dest;
    }
  }
}

void mlp_jvp_batch(const Mlp& mlp, std::span<const double> xdot,
                   std::size_t batch, MlpBatchCache& cache) {
  const auto& layers = mlp.layers();
  if (cache.batch != batch || cache.sp.size() != layers.size()) {
    throw util::ValueError("mlp_jvp_batch: stale cache, run forward first");
  }
  if (xdot.size() != batch * mlp.input_width()) {
    throw util::ValueError("mlp_jvp_batch: xdot size mismatch");
  }
  size_layer_buffers(cache.zdot, layers, batch);
  size_layer_buffers(cache.ydot, layers, batch);

  const simd::Ops& ops = simd::active();
  const double* params = mlp.params().data();
  std::size_t offset = 0;
  const double* in_rows = xdot.data();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const LayerSpec& layer = layers[l];
    const double* weights = params + offset;
    const double* sp = cache.sp[l].data();
    double* zdot = cache.zdot[l].data();
    double* ydot = cache.ydot[l].data();
    // Parameter tangents are zero, so there is no Wdot x term: the tangent
    // pre-activation is a bias-free forward through the primal weights.
    ops.dense_forward(weights, nullptr, in_rows, batch, layer.in, layer.out,
                      zdot);
    for (std::size_t k = 0; k < batch * layer.out; ++k) {
      ydot[k] = sp[k] * zdot[k];
    }
    in_rows = ydot;
    offset += layer.in * layer.out + layer.out;
  }
}

void mlp_vjp_tangent_batch(const Mlp& mlp, std::span<const double> x,
                           std::span<const double> xdot, std::size_t batch,
                           MlpBatchCache& cache,
                           std::span<const double> out_bar_dot,
                           std::span<double> x_bar_dot,
                           std::span<double> param_hvp) {
  const auto& layers = mlp.layers();
  if (cache.batch != batch || !cache.has_curvature ||
      cache.zbar.size() != layers.size() || cache.zdot.size() != layers.size()) {
    throw util::ValueError(
        "mlp_vjp_tangent_batch: cache needs forward (with curvature), "
        "backward, and jvp passes first");
  }
  if (!out_bar_dot.empty() && out_bar_dot.size() != batch * mlp.output_width()) {
    throw util::ValueError("mlp_vjp_tangent_batch: out_bar_dot size mismatch");
  }
  if (!param_hvp.empty() && param_hvp.size() != mlp.num_params()) {
    throw util::ValueError("mlp_vjp_tangent_batch: param_hvp size mismatch");
  }

  const simd::Ops& ops = simd::active();
  const double* params = mlp.params().data();
  // ybardot propagates in bar_b; zbardot is built in bar_a.  Both are sized
  // for the widest layer by the forward pass.
  const double* ybardot = out_bar_dot.empty() ? nullptr : out_bar_dot.data();
  // Peel parameter offsets back-to-front, as mlp_backward_batch does.
  std::size_t offset = mlp.num_params();
  for (std::size_t l = layers.size(); l-- > 0;) {
    const LayerSpec& layer = layers[l];
    offset -= layer.in * layer.out + layer.out;
    const double* sp = cache.sp[l].data();
    const double* sppybar = cache.spp[l].data();  // s''(z) . ybar (folded)
    const double* zbar = cache.zbar[l].data();
    const double* zdot = cache.zdot[l].data();
    double* zbardot = cache.bar_a.data();
    // zbardot = s''(z).ybar.zdot + s'(z).ybardot  (d/de of zbar = s'(z).ybar)
    for (std::size_t k = 0; k < batch * layer.out; ++k) {
      zbardot[k] = sppybar[k] * zdot[k] + (ybardot != nullptr ? sp[k] * ybardot[k] : 0.0);
    }
    const double* xin = l == 0 ? x.data() : cache.y[l - 1].data();
    const double* xin_dot = l == 0 ? xdot.data() : cache.ydot[l - 1].data();
    if (!param_hvp.empty()) {
      double* whvp = param_hvp.data() + offset;
      double* bhvp = whvp + layer.in * layer.out;
      // d/de (zbar x^T) = zbardot x^T + zbar xdot^T
      ops.dense_param_grad_tangent(xin, xin_dot, zbar, zbardot, batch, layer.in,
                                   layer.out, whvp, bhvp);
    }
    if (l > 0 || !x_bar_dot.empty()) {
      double* dest = l == 0 ? x_bar_dot.data() : cache.bar_b.data();
      ops.dense_backward_input(params + offset, zbardot, batch, layer.in,
                               layer.out, dest);
      ybardot = dest;
    }
  }
}

}  // namespace dpho::nn
