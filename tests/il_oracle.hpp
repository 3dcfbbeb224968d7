#pragma once

// The reference the IL inference path is tested against: the scalar layer
// loops of nn_oracle.hpp, post-processed exactly as IlPolicy::infer does.
// Inference and training run the GEMM kernels, so every comparison below is
// bit for bit.

#include <gtest/gtest.h>

#include "il/policy.hpp"
#include "nn/tensor.hpp"
#include "nn_oracle.hpp"
#include "sensing/bev.hpp"

namespace icoil::il::testing {

inline Inference oracle_infer(IlPolicy& policy,
                              const sense::BevImage& observation) {
  const nn::Tensor input = nn::Tensor::from_data(
      {1, observation.channels(), observation.size(), observation.size()},
      observation.data());
  const nn::Tensor logits = nn::oracle::forward(policy.network(), input);
  return IlPolicy::inference_from_logits(logits.data(), logits.dim(1));
}

inline void expect_same_inference(const Inference& got, const Inference& want,
                                  const char* what) {
  ASSERT_EQ(got.probs.size(), want.probs.size()) << what;
  for (std::size_t j = 0; j < want.probs.size(); ++j)
    EXPECT_EQ(got.probs[j], want.probs[j]) << what << " prob " << j;
  EXPECT_EQ(got.action_class, want.action_class) << what;
  EXPECT_EQ(got.entropy, want.entropy) << what;
  EXPECT_EQ(got.command.steer, want.command.steer) << what;
  EXPECT_EQ(got.command.throttle, want.command.throttle) << what;
  EXPECT_EQ(got.command.brake, want.command.brake) << what;
  EXPECT_EQ(got.command.reverse, want.command.reverse) << what;
}

}  // namespace icoil::il::testing
