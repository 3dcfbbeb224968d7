#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace icoil::nn {

/// 2-D convolution, stride 1, zero padding `pad`, square kernel.
/// Input/output NCHW. Naive loops — fast enough for the 64x64 BEV inputs.
class Conv2D final : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel = 3, int pad = 1);

  std::string name() const override { return "conv2d"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_eval(const Tensor& input, Tensor& output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  void init(math::Rng& rng) override;

  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }

 private:
  int in_c_, out_c_, k_, pad_;
  Param weight_;  ///< (out_c, in_c, k, k)
  Param bias_;    ///< (out_c)
  Tensor cached_input_;
  Tensor col_;  ///< im2col scratch for forward_eval, reused across frames
};

/// Elementwise max(0, x).
class ReLU final : public Layer {
 public:
  std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_eval(const Tensor& input, Tensor& output) override;

 private:
  Tensor mask_;
};

/// 2x2 max pooling with stride 2 (input H, W must be even).
class MaxPool2D final : public Layer {
 public:
  std::string name() const override { return "maxpool2d"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_eval(const Tensor& input, Tensor& output) override;

 private:
  Tensor input_shape_cache_;
  std::vector<int> in_shape_;
  std::vector<std::size_t> argmax_;
};

/// Collapse (N, C, H, W) -> (N, C*H*W).
class Flatten final : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_eval(const Tensor& input, Tensor& output) override;

 private:
  std::vector<int> in_shape_;
};

/// Fully connected layer: y = x W + b. W is stored (in_features,
/// out_features), row-major — the B operand of math::gemm_f32 — so
/// forward_eval runs one GEMM straight on the learnable weights and no
/// second copy has to be kept in sync after init, load or an optimizer
/// step. forward() and backward() are the scalar reference loops; every
/// output element is its bias plus the in-feature terms in ascending order
/// on both paths, which keeps them bit-identical.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features);

  std::string name() const override { return "dense"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_eval(const Tensor& input, Tensor& output) override;
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

/// Row-wise softmax over (N, M) logits. Backward assumes the incoming
/// gradient is dL/d(prob) and applies the softmax Jacobian.
class Softmax final : public Layer {
 public:
  std::string name() const override { return "softmax"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_eval(const Tensor& input, Tensor& output) override;

 private:
  Tensor cached_output_;
};

/// Numerically stable standalone softmax over one row of logits.
std::vector<float> softmax_row(const float* logits, int m);
/// Same computation written into a caller-owned buffer of m floats.
void softmax_row_into(const float* logits, int m, float* out);

}  // namespace icoil::nn
