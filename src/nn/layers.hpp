#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace icoil::nn {

/// 2-D convolution, stride 1, square odd kernel, "same" zero padding
/// (pad = kernel / 2, so the output plane is the input's). Input/output
/// NCHW. Forward is per-item im2col — each tap's column row is one shifted
/// run of the input plane, with the padding entries zeroed — plus one GEMM
/// against the weights; backward is the shifted-row loop over the cached
/// input.
class Conv2D final : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel = 3);

  std::string name() const override { return "conv2d"; }
  void forward(const Tensor& input, Tensor& output, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  void init(math::Rng& rng) override;

  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }
  int pad() const { return pad_; }

 private:
  int in_c_, out_c_, k_, pad_;
  Param weight_;  ///< (out_c, in_c, k, k)
  Param bias_;    ///< (out_c)
  Tensor cached_input_;
  Tensor col_;  ///< im2col scratch, reused and fully rewritten per item
};

/// Elementwise max(0, x): `x < 0 ? 0 : x`, so -0 and NaN pass through.
/// Forward runs branch-free on 4-float vector lanes, bit-identical to the
/// scalar select; the training mask is `x > 0 ? 1 : 0`.
class ReLU final : public Layer {
 public:
  std::string name() const override { return "relu"; }
  void forward(const Tensor& input, Tensor& output, bool training) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor mask_;
};

/// 2x2 max pooling with stride 2 (input H, W must be even).
class MaxPool2D final : public Layer {
 public:
  std::string name() const override { return "maxpool2d"; }
  void forward(const Tensor& input, Tensor& output, bool training) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  std::vector<int> in_shape_;
  std::vector<std::size_t> argmax_;
};

/// Collapse (N, C, H, W) -> (N, C*H*W).
class Flatten final : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  void forward(const Tensor& input, Tensor& output, bool training) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  std::vector<int> in_shape_;
};

/// Fully connected layer: y = x W + b. W is stored (in_features,
/// out_features), row-major — the B operand of math::gemm_f32 — so forward
/// runs one GEMM straight on the learnable weights and no second copy has
/// to be kept in sync after init, load or an optimizer step. Every output
/// element is its bias plus the in-feature terms in ascending order.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features);

  std::string name() const override { return "dense"; }
  void forward(const Tensor& input, Tensor& output, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  void init(math::Rng& rng) override;

  int in_features() const { return in_f_; }
  int out_features() const { return out_f_; }

 private:
  int in_f_, out_f_;
  /// (in_f, out_f): element i * out_f + o weighs input i into output o.
  Param weight_;
  Param bias_;    ///< (out_f)
  Tensor cached_input_;
};

/// Numerically stable softmax over one row of logits.
std::vector<float> softmax_row(const float* logits, int m);

}  // namespace icoil::nn
