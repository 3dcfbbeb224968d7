#include "nn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "mathkit/gemm.hpp"

namespace icoil::nn {

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(int in_channels, int out_channels, int kernel)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel), pad_(kernel / 2),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}) {
  assert(kernel % 2 == 1 && "\"same\" padding needs an odd kernel");
}

void Conv2D::init(math::Rng& rng) {
  // He initialization for ReLU networks.
  const double fan_in = static_cast<double>(in_c_) * k_ * k_;
  const double stddev = std::sqrt(2.0 / fan_in);
  for (float& w : weight_.value.vec()) w = static_cast<float>(rng.normal(0.0, stddev));
  bias_.value.zero();
}

namespace {

// The column row of one tap (dy, dx) over an h x w plane with "same"
// padding: crow[y*w + x] = plane[(y+dy)*w + x+dx] where that pixel exists,
// 0 where it falls in the padding. Input and output rows share the stride
// w, so the in-plane entries of all rows form one shifted run of the input,
// copied at once. The run also spans the |dx| padding entries between
// consecutive rows, which are zeroed after it, as are the entries before
// and after the run. Every entry is written, so nothing left in `crow` by
// an earlier call (of any geometry) shows through.
void im2col_tap(const float* plane, int h, int w, int dy, int dx,
                float* crow) {
  const std::size_t size = static_cast<std::size_t>(h) * w;
  const int y_lo = std::max(0, -dy), y_hi = std::min(h, h - dy);
  const int x_lo = std::max(0, -dx), x_hi = std::min(w, w - dx);
  if (y_lo >= y_hi || x_lo >= x_hi) {
    std::fill(crow, crow + size, 0.0f);
    return;
  }
  const std::size_t begin = static_cast<std::size_t>(y_lo) * w + x_lo;
  const std::size_t end = static_cast<std::size_t>(y_hi - 1) * w + x_hi;
  const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(dy) * w + dx;
  std::fill(crow, crow + begin, 0.0f);
  std::copy(plane + begin + shift, plane + end + shift, crow + begin);
  if (dx != 0)
    for (int y = y_lo; y + 1 < y_hi; ++y)
      std::fill(crow + static_cast<std::size_t>(y) * w + x_hi,
                crow + static_cast<std::size_t>(y + 1) * w + x_lo, 0.0f);
  std::fill(crow + end, crow + size, 0.0f);
}

}  // namespace

// Per-item im2col + one GEMM per item against the shared weights. Column
// rows are ordered (ic, ky, kx) — exactly the weight layout — and the output
// is bias-initialized before an accumulating GEMM, so every output element
// is its bias plus the taps in ascending (ic, ky, kx) order (see
// mathkit/gemm.hpp for why the GEMM itself never reassociates).
void Conv2D::forward(const Tensor& input, Tensor& out, bool training) {
  const int n = input.dim(0), h = input.dim(2), w = input.dim(3);
  if (training) cached_input_ = input;
  out.resize({n, out_c_, h, w});

  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const int taps = in_c_ * k_ * k_;
  col_.resize({taps, static_cast<int>(plane)});

  for (int b = 0; b < n; ++b) {
    for (int ic = 0; ic < in_c_; ++ic) {
      const float* in_base =
          input.data() + (static_cast<std::size_t>(b) * in_c_ + ic) * plane;
      for (int ky = 0; ky < k_; ++ky)
        for (int kx = 0; kx < k_; ++kx)
          im2col_tap(in_base, h, w, ky - pad_, kx - pad_,
                     col_.data() +
                         static_cast<std::size_t>((ic * k_ + ky) * k_ + kx) *
                             plane);
    }

    float* out_base = out.data() + static_cast<std::size_t>(b) * out_c_ * plane;
    for (int oc = 0; oc < out_c_; ++oc) {
      const float bias = bias_.value[static_cast<std::size_t>(oc)];
      float* orow = out_base + static_cast<std::size_t>(oc) * plane;
      for (std::size_t i = 0; i < plane; ++i) orow[i] = bias;
    }
    math::gemm_f32(static_cast<std::size_t>(out_c_), plane,
                   static_cast<std::size_t>(taps), weight_.value.data(),
                   static_cast<std::size_t>(taps), col_.data(), plane,
                   out_base, plane, /*accumulate=*/true);
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

namespace {

// Four float lanes: SSE2 on x86-64, so this TU needs no -mavx2 (wider GNU
// vectors would be split into pairs here). aligned(4) permits loads from
// any float address, may_alias lets the lanes read the tensors' storage.
typedef float f32x4 __attribute__((vector_size(16), aligned(4), may_alias));

// One expression for a lane vector and for a scalar. A vector compare
// gives an all-ones or all-zeros mask per lane and `?:` selects lane by
// lane, so each lane gets exactly the scalar result: -0 and NaN are not
// below 0 and pass through; NaN is not above 0 and masks to 0.
template <typename T>
T relu_value(T v, T zero) { return v < zero ? zero : v; }
template <typename T>
T relu_mask(T v, T zero, T one) { return v > zero ? one : zero; }

}  // namespace

// Branch-free: whole lane vectors, then a scalar tail of at most 3.
void ReLU::forward(const Tensor& input, Tensor& out, bool training) {
  out.resize(input.shape());
  const std::size_t n = input.size(), vn = n - n % 4;
  const float* x = input.data();
  float* y = out.data();
  const f32x4 zero{}, one = zero + 1.0f;
  for (std::size_t i = 0; i < vn; i += 4)
    *reinterpret_cast<f32x4*>(y + i) =
        relu_value(*reinterpret_cast<const f32x4*>(x + i), zero);
  for (std::size_t i = vn; i < n; ++i) y[i] = relu_value(x[i], 0.0f);
  if (!training) return;
  mask_.resize(input.shape());
  float* m = mask_.data();
  for (std::size_t i = 0; i < vn; i += 4)
    *reinterpret_cast<f32x4*>(m + i) =
        relu_mask(*reinterpret_cast<const f32x4*>(x + i), zero, one);
  for (std::size_t i = vn; i < n; ++i) m[i] = relu_mask(x[i], 0.0f, 1.0f);
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
