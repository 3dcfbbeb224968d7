#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "mathkit/gemm.hpp"

namespace icoil::nn {

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int pad)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel), pad_(pad),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}) {}

void Conv2D::init(math::Rng& rng) {
  // He initialization for ReLU networks.
  const double fan_in = static_cast<double>(in_c_) * k_ * k_;
  const double stddev = std::sqrt(2.0 / fan_in);
  for (float& w : weight_.value.vec()) w = static_cast<float>(rng.normal(0.0, stddev));
  bias_.value.zero();
}

// Per-item im2col + one GEMM per item against the shared weights. Column
// rows are ordered (ic, ky, kx) — exactly the weight layout — and the output
// is bias-initialized before an accumulating GEMM, so every output element
// is its bias plus the taps in ascending (ic, ky, kx) order (see
// mathkit/gemm.hpp for why the GEMM itself never reassociates).
void Conv2D::forward(const Tensor& input, Tensor& out, bool training) {
  const int n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const int oh = h + 2 * pad_ - k_ + 1;
  const int ow = w + 2 * pad_ - k_ + 1;
  if (training) cached_input_ = input;
  out.resize({n, out_c_, oh, ow});

  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;
  const int taps = in_c_ * k_ * k_;

  // The im2col scratch persists across frames. Entries that correspond to
  // zero padding are never touched in the per-item fill below, so the
  // buffer is zeroed once per geometry change and the padding zeros simply
  // persist from frame to frame.
  const std::vector<int> col_shape = {taps, static_cast<int>(out_plane)};
  if (col_.shape() != col_shape) {
    col_.resize(col_shape);
    col_.zero();
  }

  for (int b = 0; b < n; ++b) {
    for (int ic = 0; ic < in_c_; ++ic) {
      const float* in_base =
          input.data() + (static_cast<std::size_t>(b) * in_c_ + ic) * in_plane;
      for (int ky = 0; ky < k_; ++ky) {
        for (int kx = 0; kx < k_; ++kx) {
          const int dy = ky - pad_, dx = kx - pad_;
          const int y_lo = std::max(0, -dy), y_hi = std::min(oh, h - dy);
          const int x_lo = std::max(0, -dx), x_hi = std::min(ow, w - dx);
          float* crow = col_.data() +
                        static_cast<std::size_t>((ic * k_ + ky) * k_ + kx) *
                            out_plane;
          for (int y = y_lo; y < y_hi; ++y) {
            const float* irow =
                in_base + static_cast<std::size_t>(y + dy) * w + dx;
            float* cdst = crow + static_cast<std::size_t>(y) * ow;
            std::copy(irow + x_lo, irow + x_hi, cdst + x_lo);
          }
        }
      }
    }

    float* out_base =
        out.data() + static_cast<std::size_t>(b) * out_c_ * out_plane;
    for (int oc = 0; oc < out_c_; ++oc) {
      const float bias = bias_.value[static_cast<std::size_t>(oc)];
      float* orow = out_base + static_cast<std::size_t>(oc) * out_plane;
      for (std::size_t i = 0; i < out_plane; ++i) orow[i] = bias;
    }
    math::gemm_f32(static_cast<std::size_t>(out_c_), out_plane,
                   static_cast<std::size_t>(taps), weight_.value.data(),
                   static_cast<std::size_t>(taps), col_.data(), out_plane,
                   out_base, out_plane, /*accumulate=*/true);
  }
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const Tensor& input = cached_input_;
  const int n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const int oh = grad_out.dim(2), ow = grad_out.dim(3);
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;

  Tensor grad_in({n, in_c_, h, w});
  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* g_base =
          grad_out.data() +
          (static_cast<std::size_t>(b) * out_c_ + oc) * out_plane;
      float bias_acc = 0.0f;
      for (std::size_t i = 0; i < out_plane; ++i) bias_acc += g_base[i];
      bias_.grad[static_cast<std::size_t>(oc)] += bias_acc;

      for (int ic = 0; ic < in_c_; ++ic) {
        const float* in_base =
            input.data() + (static_cast<std::size_t>(b) * in_c_ + ic) * in_plane;
        float* gi_base = grad_in.data() +
                         (static_cast<std::size_t>(b) * in_c_ + ic) * in_plane;
        for (int ky = 0; ky < k_; ++ky) {
          for (int kx = 0; kx < k_; ++kx) {
            const int dy = ky - pad_, dx = kx - pad_;
            const int y_lo = std::max(0, -dy), y_hi = std::min(oh, h - dy);
            const int x_lo = std::max(0, -dx), x_hi = std::min(ow, w - dx);
            const float wv = weight_.value.at4(oc, ic, ky, kx);
            float w_acc = 0.0f;
            for (int y = y_lo; y < y_hi; ++y) {
              const float* grow = g_base + static_cast<std::size_t>(y) * ow;
              const float* irow =
                  in_base + static_cast<std::size_t>(y + dy) * w + dx;
              float* girow =
                  gi_base + static_cast<std::size_t>(y + dy) * w + dx;
              for (int x = x_lo; x < x_hi; ++x) {
                w_acc += grow[x] * irow[x];
                girow[x] += grow[x] * wv;
              }
            }
            weight_.grad.at4(oc, ic, ky, kx) += w_acc;
          }
        }
      }
    }
  }
  return grad_in;
}

// ------------------------------------------------------------------ ReLU

void ReLU::forward(const Tensor& input, Tensor& out, bool training) {
  out.resize(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float v = input[i];
    out[i] = v < 0.0f ? 0.0f : v;
  }
  if (!training) return;
  mask_.resize(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i)
    mask_[i] = input[i] > 0.0f ? 1.0f : 0.0f;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.size(); ++i) grad_in[i] *= mask_[i];
  return grad_in;
}

// ------------------------------------------------------------- MaxPool2D

namespace {

// The 2x2 pool over every (batch, channel) plane: a row-major scan of each
// window in which the first strict maximum wins. With kRecord the winner's
// flat input index goes to `argmax` for backward; without it the index
// work compiles away, leaving a plain running max.
template <bool kRecord>
void max_pool(const Tensor& input, Tensor& out, std::size_t* argmax) {
  const int h = input.dim(2), w = input.dim(3), oh = h / 2, ow = w / 2;
  const std::size_t planes =
      static_cast<std::size_t>(input.dim(0)) * input.dim(1);
  for (std::size_t p = 0; p < planes; ++p) {
    const std::size_t in_offset = p * static_cast<std::size_t>(h) * w;
    const std::size_t out_offset = p * static_cast<std::size_t>(oh) * ow;
    const float* in = input.data() + in_offset;
    float* out_base = out.data() + out_offset;
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        float best = -1e30f;
        std::size_t best_idx = 0;
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            const std::size_t idx =
                static_cast<std::size_t>(2 * y + dy) * w + 2 * x + dx;
            const float v = in[idx];
            if constexpr (kRecord) {
              if (v > best) best_idx = idx;
            }
            if (v > best) best = v;
          }
        }
        const std::size_t o = static_cast<std::size_t>(y) * ow + x;
        out_base[o] = best;
        if constexpr (kRecord) argmax[out_offset + o] = in_offset + best_idx;
      }
    }
  }
}

}  // namespace

void MaxPool2D::forward(const Tensor& input, Tensor& out, bool training) {
  out.resize({input.dim(0), input.dim(1), input.dim(2) / 2, input.dim(3) / 2});
  if (!training) return max_pool<false>(input, out, nullptr);
  in_shape_ = input.shape();
  argmax_.resize(out.size());
  max_pool<true>(input, out, argmax_.data());
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i)
    grad_in[argmax_[i]] += grad_out[i];
  return grad_in;
}

// --------------------------------------------------------------- Flatten

void Flatten::forward(const Tensor& input, Tensor& out, bool training) {
  if (training) in_shape_ = input.shape();
  const int n = input.dim(0);
  out.resize({n, static_cast<int>(input.size()) / n});
  std::copy(input.data(), input.data() + input.size(), out.data());
}

Tensor Flatten::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  grad_in.reshape(in_shape_);
  return grad_in;
}

// ----------------------------------------------------------------- Dense

Dense::Dense(int in_features, int out_features)
    : in_f_(in_features), out_f_(out_features),
      weight_({in_features, out_features}), bias_({out_features}) {}

void Dense::init(math::Rng& rng) {
  // Xavier/Glorot uniform. Drawn in (o, i) order so that a seed yields the
  // same logical weights whatever the storage layout.
  const double limit = std::sqrt(6.0 / (in_f_ + out_f_));
  float* w = weight_.value.data();
  for (int o = 0; o < out_f_; ++o)
    for (int i = 0; i < in_f_; ++i)
      w[static_cast<std::size_t>(i) * out_f_ + o] =
          static_cast<float>(rng.uniform(-limit, limit));
  bias_.value.zero();
}

// One GEMM over the whole batch, straight on the stored (in_f, out_f)
// weights. Each output element's k-sum runs over in_f in ascending order on
// top of the bias (see mathkit/gemm.hpp).
void Dense::forward(const Tensor& input, Tensor& out, bool training) {
  const int n = input.dim(0);
  if (training) cached_input_ = input;
  out.resize({n, out_f_});
  for (int b = 0; b < n; ++b) {
    float* orow = out.data() + static_cast<std::size_t>(b) * out_f_;
    std::copy(bias_.value.data(), bias_.value.data() + out_f_, orow);
  }
  math::gemm_f32(static_cast<std::size_t>(n), static_cast<std::size_t>(out_f_),
                 static_cast<std::size_t>(in_f_), input.data(),
                 static_cast<std::size_t>(in_f_), weight_.value.data(),
                 static_cast<std::size_t>(out_f_), out.data(),
                 static_cast<std::size_t>(out_f_), /*accumulate=*/true);
}

// Zero output gradients contribute nothing: their terms are skipped, not
// added as zeros. Weight and bias grads accumulate over the batch in row
// order; each input grad sums its output terms in ascending order.
Tensor Dense::backward(const Tensor& grad_out) {
  const int n = grad_out.dim(0);
  Tensor grad_in({n, in_f_});
  const float* w = weight_.value.data();
  float* wgrad = weight_.grad.data();
  float* bgrad = bias_.grad.data();
  for (int b = 0; b < n; ++b) {
    const float* x = cached_input_.data() + static_cast<std::size_t>(b) * in_f_;
    const float* g = grad_out.data() + static_cast<std::size_t>(b) * out_f_;
    float* gi = grad_in.data() + static_cast<std::size_t>(b) * in_f_;
    for (int o = 0; o < out_f_; ++o)
      if (g[o] != 0.0f) bgrad[o] += g[o];
    for (int i = 0; i < in_f_; ++i) {
      const float xi = x[i];
      const float* wrow = w + static_cast<std::size_t>(i) * out_f_;
      float* wg = wgrad + static_cast<std::size_t>(i) * out_f_;
      float acc = 0.0f;
      for (int o = 0; o < out_f_; ++o) {
        if (g[o] == 0.0f) continue;
        wg[o] += g[o] * xi;
        acc += g[o] * wrow[o];
      }
      gi[i] = acc;
    }
  }
  return grad_in;
}

// --------------------------------------------------------------- Softmax

std::vector<float> softmax_row(const float* logits, int m) {
  std::vector<float> p(static_cast<std::size_t>(m));
  float mx = logits[0];
  for (int j = 1; j < m; ++j) mx = std::max(mx, logits[j]);
  float sum = 0.0f;
  for (int j = 0; j < m; ++j) {
    p[static_cast<std::size_t>(j)] = std::exp(logits[j] - mx);
    sum += p[static_cast<std::size_t>(j)];
  }
  for (float& v : p) v /= sum;
  return p;
}

}  // namespace icoil::nn
