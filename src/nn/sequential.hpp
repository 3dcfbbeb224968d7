#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace icoil::nn {

/// Reusable intermediate buffers for Sequential::forward. Own one per call
/// site (il::IlPolicy keeps one for infer(), each batching service and each
/// training shard another) and the forward stops allocating once shapes
/// stabilize.
struct Workspace {
  Tensor ping;
  Tensor pong;
};

/// An ordered stack of layers — the network container used by the IL policy.
class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  /// Initialize every layer's parameters from a seeded RNG.
  void init(math::Rng& rng) {
    for (auto& l : layers_) l->init(rng);
  }

  /// Forward through the caller's workspace: layers ping-pong between its
  /// two buffers, so a steady-state caller allocates nothing per call. With
  /// training=true every layer also records what backward() needs. Returns
  /// a reference into `ws` (or `input` for an empty network), valid until
  /// the next forward with the same workspace.
  const Tensor& forward(const Tensor& input, Workspace& ws, bool training) {
    const Tensor* cur = &input;
    Tensor* bufs[2] = {&ws.ping, &ws.pong};
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      Tensor& dst = *bufs[i % 2];
      layers_[i]->forward(*cur, dst, training);
      cur = &dst;
    }
    return *cur;
  }

  /// Backpropagate dL/d(output); parameter grads accumulate into params().
  Tensor backward(const Tensor& grad_output) {
    Tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
      g = (*it)->backward(g);
    return g;
  }

  std::vector<Param*> params() {
    std::vector<Param*> out;
    for (auto& l : layers_)
      for (Param* p : l->params()) out.push_back(p);
    return out;
  }

  void zero_grad() {
    for (Param* p : params()) p->grad.zero();
  }

  /// Total learnable scalar count.
  std::size_t num_parameters() {
    std::size_t n = 0;
    for (Param* p : params()) n += p->value.size();
    return n;
  }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace icoil::nn
