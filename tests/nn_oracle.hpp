#pragma once

// Scalar reference forwards of the nn layers, the oracle their GEMM
// kernels are tested against bit for bit: the shifted-row AXPY convolution,
// the i-outer Dense loop, and plain ReLU / 2x2 max-pool / flatten loops.
// Every output element is its bias plus the terms in the kernels' order —
// (ic, ky, kx) taps for the conv, ascending in-features for Dense — so the
// two differ only by the ±0 terms the GEMM adds where these loops skip a
// zero weight or a padding tap. Those change no bits of a sum that starts
// from a bias other than -0 (init writes +0, and no update yields -0).

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <vector>

#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"

namespace icoil::nn::oracle {

/// Stride-1 convolution, square kernel of side weight.dim(2), zero padding
/// `pad`. For each kernel tap the inner loop is a multiply-add along a
/// contiguous row.
inline Tensor conv2d(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, int pad) {
  const int n = input.dim(0), in_c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int out_c = weight.dim(0), k = weight.dim(2);
  const int oh = h + 2 * pad - k + 1;
  const int ow = w + 2 * pad - k + 1;
  Tensor out({n, out_c, oh, ow});
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;

  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < out_c; ++oc) {
      float* out_base =
          out.data() + (static_cast<std::size_t>(b) * out_c + oc) * out_plane;
      const float bv = bias[static_cast<std::size_t>(oc)];
      for (std::size_t i = 0; i < out_plane; ++i) out_base[i] = bv;

      for (int ic = 0; ic < in_c; ++ic) {
        const float* in_base =
            input.data() + (static_cast<std::size_t>(b) * in_c + ic) * in_plane;
        for (int ky = 0; ky < k; ++ky) {
          for (int kx = 0; kx < k; ++kx) {
            const float wv = weight.at4(oc, ic, ky, kx);
            if (wv == 0.0f) continue;
            const int dy = ky - pad, dx = kx - pad;
            const int y_lo = std::max(0, -dy), y_hi = std::min(oh, h - dy);
            const int x_lo = std::max(0, -dx), x_hi = std::min(ow, w - dx);
            for (int y = y_lo; y < y_hi; ++y) {
              float* orow = out_base + static_cast<std::size_t>(y) * ow;
              const float* irow =
                  in_base + static_cast<std::size_t>(y + dy) * w + dx;
              for (int x = x_lo; x < x_hi; ++x) orow[x] += wv * irow[x];
            }
          }
        }
      }
    }
  }
  return out;
}

inline Tensor relu(const Tensor& input) {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] < 0.0f) out[i] = 0.0f;
  return out;
}

/// 2x2 stride-2 max pool. The first strict maximum of each window in
/// row-major order wins; its flat input index goes to `argmax` if given.
inline Tensor maxpool2d(const Tensor& input,
                        std::vector<std::size_t>* argmax = nullptr) {
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  Tensor out({n, c, h / 2, w / 2});
  if (argmax) argmax->assign(out.size(), 0);
  std::size_t oi = 0;
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      for (int y = 0; y < h / 2; ++y) {
        for (int x = 0; x < w / 2; ++x, ++oi) {
          float best = -1e30f;
          std::size_t best_idx = 0;
          for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
              const int iy = 2 * y + dy, ix = 2 * x + dx;
              const float v = input.at4(b, ch, iy, ix);
              if (v > best) {
                best = v;
                best_idx =
                    ((static_cast<std::size_t>(b) * c + ch) * h + iy) * w + ix;
              }
            }
          }
          out[oi] = best;
          if (argmax) (*argmax)[oi] = best_idx;
        }
      }
    }
  }
  return out;
}

inline Tensor flatten(const Tensor& input) {
  Tensor out = input;
  const int n = input.dim(0);
  out.reshape({n, static_cast<int>(input.size()) / n});
  return out;
}

/// y = x W + b with W stored (in, out): every output starts at its bias and
/// adds the in-feature terms in ascending order; the inner loop runs across
/// output features.
inline Tensor dense(const Tensor& input, const Tensor& weight,
                    const Tensor& bias) {
  const int n = input.dim(0), in_f = weight.dim(0), out_f = weight.dim(1);
  Tensor out({n, out_f});
  for (int b = 0; b < n; ++b) {
    const float* x = input.data() + static_cast<std::size_t>(b) * in_f;
    float* y = out.data() + static_cast<std::size_t>(b) * out_f;
    std::copy(bias.data(), bias.data() + out_f, y);
    for (int i = 0; i < in_f; ++i) {
      const float xi = x[i];
      const float* wrow = weight.data() + static_cast<std::size_t>(i) * out_f;
      for (int o = 0; o < out_f; ++o) y[o] += wrow[o] * xi;
    }
  }
  return out;
}

/// The reference forward of any layer of this library.
inline Tensor forward(Layer& layer, const Tensor& input) {
  if (auto* conv = dynamic_cast<Conv2D*>(&layer))
    return conv2d(input, conv->params()[0]->value, conv->params()[1]->value,
                  conv->pad());
  if (auto* fc = dynamic_cast<Dense*>(&layer))
    return dense(input, fc->params()[0]->value, fc->params()[1]->value);
  if (dynamic_cast<ReLU*>(&layer)) return relu(input);
  if (dynamic_cast<MaxPool2D*>(&layer)) return maxpool2d(input);
  if (dynamic_cast<Flatten*>(&layer)) return flatten(input);
  std::abort();  // a layer type the oracle does not know
}

/// The whole network, layer by layer, through the loops above.
inline Tensor forward(Sequential& net, const Tensor& input) {
  Tensor x = input;
  for (std::size_t i = 0; i < net.num_layers(); ++i)
    x = forward(net.layer(i), x);
  return x;
}

}  // namespace icoil::nn::oracle
