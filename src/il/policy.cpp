#include "il/policy.hpp"

#include <algorithm>
#include <cassert>

#include "nn/layers.hpp"
#include "nn/loss.hpp"

namespace icoil::il {

namespace {

nn::Sequential build_network(const IlPolicy::Config& c) {
  nn::Sequential net;
  // Feature extraction: three conv/ReLU/maxpool stages (section IV-A).
  int ch = kObservationChannels;
  int side = c.bev_size;
  for (int stage = 0; stage < 3; ++stage) {
    net.add<nn::Conv2D>(ch, c.conv_channels[stage], 3, 1);
    net.add<nn::ReLU>();
    net.add<nn::MaxPool2D>();
    ch = c.conv_channels[stage];
    side /= 2;
  }
  net.add<nn::Flatten>();
  // State-action network: four fully connected layers; the last outputs the
  // M logits consumed by the softmax.
  int features = ch * side * side;
  for (int i = 0; i < 3; ++i) {
    net.add<nn::Dense>(features, c.fc_sizes[i]);
    net.add<nn::ReLU>();
    features = c.fc_sizes[i];
  }
  net.add<nn::Dense>(features, ActionDiscretizer::num_classes());
  return net;
}

}  // namespace

IlPolicy::IlPolicy(Config config, std::uint64_t init_seed)
    : config_(config), net_(build_network(config)) {
  math::Rng rng(init_seed);
  net_.init(rng);
}

nn::Tensor IlPolicy::forward_batch(const nn::Tensor& batch) {
  return net_.forward(batch, /*training=*/true);
}

const nn::Tensor& IlPolicy::forward_eval(const nn::Tensor& batch,
                                         nn::EvalWorkspace& ws) {
  return net_.forward_eval(batch, ws);
}

Inference IlPolicy::inference_from_logits(const float* logits, int m) {
  Inference out;
  out.probs = nn::softmax_row(logits, m);
  out.action_class = static_cast<int>(
      std::max_element(out.probs.begin(), out.probs.end()) - out.probs.begin());
  out.command = ActionDiscretizer::to_command(out.action_class);
  out.entropy = nn::entropy(out.probs);
  return out;
}

Inference IlPolicy::infer(const sense::BevImage& observation) {
  assert(observation.size() == config_.bev_size &&
         observation.channels() == kObservationChannels);
  const std::vector<float>& src = observation.data();
  input_.resize({1, observation.channels(), observation.size(),
                 observation.size()});
  std::copy(src.begin(), src.end(), input_.data());
  const nn::Tensor& logits = net_.forward_eval(input_, ws_);
  return inference_from_logits(logits.data(), logits.dim(1));
}

std::unique_ptr<IlPolicy> IlPolicy::clone() const {
  auto copy = std::make_unique<IlPolicy>(config_);
  auto* self = const_cast<IlPolicy*>(this);
  const auto src = self->net_.params();
  const auto dst = copy->net_.params();
  assert(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    assert(src[i]->value.shape() == dst[i]->value.shape());
    dst[i]->value = src[i]->value;
  }
  return copy;
}

}  // namespace icoil::il
