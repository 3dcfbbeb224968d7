#pragma once

#include <string>
#include <vector>

#include "mathkit/rng.hpp"
#include "nn/tensor.hpp"

namespace icoil::nn {

/// A learnable parameter with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(std::vector<int> shape)
      : value(shape), grad(std::move(shape)) {}
};

/// Base class for network layers. One forward serves inference and
/// training: with `training` set a layer also records what the following
/// `backward` needs (a copy of its input, a mask, argmax indices, a shape) —
/// the classic define-by-layer backprop contract.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;
  /// Compute the layer output for a batch input into a caller-owned tensor,
  /// resized in place, so once shapes stabilize nothing allocates.
  /// `output` must not alias `input`. Whatever a training forward records
  /// is a copy: `input` may be overwritten before backward().
  virtual void forward(const Tensor& input, Tensor& output, bool training) = 0;
  /// Given dL/d(output), accumulate parameter grads and return dL/d(input).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }
  /// Initialize parameters from `rng` (no-op for stateless layers).
  virtual void init(math::Rng& rng) { (void)rng; }
};

}  // namespace icoil::nn
