#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "il/action.hpp"
#include "il/dataset.hpp"
#include "il/policy.hpp"
#include "il/trainer.hpp"
#include "il_oracle.hpp"
#include "nn/loss.hpp"

namespace icoil::il {
namespace {

using testing::expect_same_inference;
using testing::oracle_infer;

// ----------------------------------------------------------- discretizer

TEST(ActionTest, NumClasses) {
  EXPECT_EQ(ActionDiscretizer::num_classes(), 15);
  EXPECT_EQ(ActionDiscretizer::kSteerBins * ActionDiscretizer::kLongBins, 15);
}

TEST(ActionTest, ClassCommandRoundTrip) {
  // to_class(to_command(c)) == c for every class.
  for (int c = 0; c < ActionDiscretizer::num_classes(); ++c) {
    const vehicle::Command cmd = ActionDiscretizer::to_command(c);
    EXPECT_EQ(ActionDiscretizer::to_class(cmd), c) << "class " << c;
  }
}

TEST(ActionTest, SteerSnapsToNearestLevel) {
  vehicle::Command cmd;
  cmd.throttle = 0.5;
  cmd.steer = 0.4;  // nearest level is 0.5
  const int cls = ActionDiscretizer::to_class(cmd);
  EXPECT_DOUBLE_EQ(ActionDiscretizer::to_command(cls).steer, 0.5);
  cmd.steer = -0.9;  // nearest level is -1.0
  EXPECT_DOUBLE_EQ(
      ActionDiscretizer::to_command(ActionDiscretizer::to_class(cmd)).steer,
      -1.0);
}

TEST(ActionTest, BrakeDominatesThrottle) {
  vehicle::Command cmd;
  cmd.throttle = 0.3;
  cmd.brake = 0.5;
  const int cls = ActionDiscretizer::to_class(cmd);
  EXPECT_EQ(ActionDiscretizer::long_bin(cls), 1);
  EXPECT_GT(ActionDiscretizer::to_command(cls).brake, 0.0);
}

TEST(ActionTest, ReverseBinPreserved) {
  vehicle::Command cmd;
  cmd.throttle = 0.6;
  cmd.reverse = true;
  const int cls = ActionDiscretizer::to_class(cmd);
  EXPECT_EQ(ActionDiscretizer::long_bin(cls), 2);
  EXPECT_TRUE(ActionDiscretizer::to_command(cls).reverse);
}

TEST(ActionTest, BinHelpers) {
  for (int l = 0; l < ActionDiscretizer::kLongBins; ++l)
    for (int s = 0; s < ActionDiscretizer::kSteerBins; ++s) {
      const int c = ActionDiscretizer::make_class(l, s);
      EXPECT_EQ(ActionDiscretizer::long_bin(c), l);
      EXPECT_EQ(ActionDiscretizer::steer_bin(c), s);
    }
}

// ----------------------------------------------------------- observation

TEST(ObservationTest, AppendsSpeedChannel) {
  sense::BevImage bev(sense::kBevChannels, 8);
  bev.at(0, 1, 1) = 1.0f;
  const sense::BevImage obs = make_observation(bev, 1.5);
  EXPECT_EQ(obs.channels(), kObservationChannels);
  EXPECT_FLOAT_EQ(obs.at(0, 1, 1), 1.0f);
  const float expected = static_cast<float>(1.5 / kSpeedNormalization);
  EXPECT_FLOAT_EQ(obs.at(sense::kBevChannels, 0, 0), expected);
  EXPECT_FLOAT_EQ(obs.at(sense::kBevChannels, 7, 7), expected);
}

TEST(ObservationTest, SpeedChannelClampsAndSigns) {
  sense::BevImage bev(sense::kBevChannels, 4);
  EXPECT_FLOAT_EQ(make_observation(bev, -99.0).at(sense::kBevChannels, 0, 0),
                  -1.0f);
  EXPECT_FLOAT_EQ(make_observation(bev, 99.0).at(sense::kBevChannels, 0, 0),
                  1.0f);
  EXPECT_LT(make_observation(bev, -1.0).at(sense::kBevChannels, 0, 0), 0.0f);
}

// ---------------------------------------------------------------- policy

IlPolicyConfig tiny_config() {
  IlPolicyConfig cfg;
  cfg.bev_size = 16;
  cfg.conv_channels[0] = 4;
  cfg.conv_channels[1] = 4;
  cfg.conv_channels[2] = 8;
  cfg.fc_sizes[0] = 32;
  cfg.fc_sizes[1] = 16;
  cfg.fc_sizes[2] = 16;
  return cfg;
}

sense::BevImage random_bev(int size, std::uint64_t seed) {
  sense::BevImage img(sense::kBevChannels, size);
  math::Rng rng(seed);
  for (float& v : img.data()) v = rng.bernoulli(0.2) ? 1.0f : 0.0f;
  return img;
}

/// Random full observation (BEV + speed channel) for policy-level tests.
sense::BevImage random_obs(int size, std::uint64_t seed, double speed = 1.0) {
  return make_observation(random_bev(size, seed), speed);
}

TEST(PolicyTest, InferenceShapeAndDistribution) {
  IlPolicy policy(tiny_config());
  const Inference inf = policy.infer(random_obs(16, 1));
  ASSERT_EQ(inf.probs.size(), 15u);
  float sum = 0.0f;
  for (float p : inf.probs) {
    EXPECT_GE(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
  EXPECT_GE(inf.action_class, 0);
  EXPECT_LT(inf.action_class, 15);
  EXPECT_GE(inf.entropy, 0.0);
  EXPECT_LE(inf.entropy, std::log(15.0) + 1e-6);
}

TEST(PolicyTest, ArgmaxMatchesCommand) {
  IlPolicy policy(tiny_config());
  const Inference inf = policy.infer(random_obs(16, 2));
  const vehicle::Command expected =
      ActionDiscretizer::to_command(inf.action_class);
  EXPECT_DOUBLE_EQ(inf.command.steer, expected.steer);
  EXPECT_EQ(inf.command.reverse, expected.reverse);
}

TEST(PolicyTest, DeterministicForSeed) {
  IlPolicy a(tiny_config(), 5), b(tiny_config(), 5);
  const auto bev = random_obs(16, 3);
  const Inference ia = a.infer(bev), ib = b.infer(bev);
  ASSERT_EQ(ia.probs.size(), ib.probs.size());
  for (std::size_t i = 0; i < ia.probs.size(); ++i)
    EXPECT_FLOAT_EQ(ia.probs[i], ib.probs[i]);
}

TEST(PolicyTest, CloneProducesIdenticalOutputs) {
  IlPolicy policy(tiny_config(), 11);
  const auto clone = policy.clone();
  const auto bev = random_obs(16, 4);
  const Inference a = policy.infer(bev);
  const Inference b = clone->infer(bev);
  for (std::size_t i = 0; i < a.probs.size(); ++i)
    EXPECT_FLOAT_EQ(a.probs[i], b.probs[i]);
}

TEST(PolicyTest, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_policy_test.bin").string();
  IlPolicy a(tiny_config(), 11);
  ASSERT_TRUE(a.save(path));
  IlPolicy b(tiny_config(), 99);
  ASSERT_TRUE(b.load(path));
  const auto bev = random_obs(16, 5);
  const Inference ia = a.infer(bev), ib = b.infer(bev);
  for (std::size_t i = 0; i < ia.probs.size(); ++i)
    EXPECT_FLOAT_EQ(ia.probs[i], ib.probs[i]);
  std::filesystem::remove(path);
}

// infer() runs the GEMM eval path on the policy's own buffers; it must match
// the per-layer forward(x, false) oracle right after the weights change
// underneath it.
TEST(PolicyTest, InferFollowsLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_policy_reload.bin").string();
  IlPolicy other(tiny_config(), 99);
  ASSERT_TRUE(other.save(path));
  IlPolicy policy(tiny_config(), 11);
  const auto obs = random_obs(16, 6);
  const Inference before = policy.infer(obs);
  ASSERT_TRUE(policy.load(path));
  const Inference after = policy.infer(obs);
  expect_same_inference(after, oracle_infer(policy, obs), "after load");
  expect_same_inference(after, oracle_infer(other, obs), "loaded weights");
  EXPECT_NE(after.probs, before.probs);
  std::filesystem::remove(path);
}

TEST(PolicyTest, BevSpecMatchesConfig) {
  IlPolicy policy(tiny_config());
  EXPECT_EQ(policy.bev_spec().size, 16);
  EXPECT_DOUBLE_EQ(policy.bev_spec().range, IlPolicyConfig{}.bev_range);
}

// --------------------------------------------------------------- dataset

Dataset make_dataset(int n, int size = 16) {
  Dataset d;
  for (int i = 0; i < n; ++i) {
    Sample s;
    s.observation = random_obs(size, static_cast<std::uint64_t>(i),
                               (i % 3 - 1) * 0.5);
    s.label = i % 15;
    d.add(std::move(s));
  }
  return d;
}

TEST(DatasetTest, SizeAndHistogram) {
  const Dataset d = make_dataset(30);
  EXPECT_EQ(d.size(), 30u);
  const auto hist = d.class_histogram(15);
  for (std::size_t c = 0; c < 15; ++c) EXPECT_EQ(hist[c], 2u);
}

TEST(DatasetTest, SplitFractions) {
  const Dataset d = make_dataset(20);
  const auto [train, val] = d.split(0.25);
  EXPECT_EQ(train.size(), 15u);
  EXPECT_EQ(val.size(), 5u);
}

TEST(DatasetTest, ShuffleDeterministicPermutation) {
  Dataset a = make_dataset(20), b = make_dataset(20);
  math::Rng r1(3), r2(3);
  a.shuffle(r1);
  b.shuffle(r2);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].label, b[i].label);
}

TEST(DatasetTest, MakeBatchShapesAndLabels) {
  const Dataset d = make_dataset(10);
  const auto [batch, labels] = d.make_batch(2, 4);
  EXPECT_EQ(batch.shape(),
            (std::vector<int>{4, kObservationChannels, 16, 16}));
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels[0], 2);
  EXPECT_EQ(labels[3], 5);
}

// --------------------------------------------------------------- trainer

/// Observation encodes the label geometrically: a bright row for each of
/// four classes, plus mild noise.
Dataset make_row_dataset(int n) {
  Dataset d;
  math::Rng rng(7);
  for (int i = 0; i < n; ++i) {
    const int label = i % 4;
    sense::BevImage img(kObservationChannels, 16);
    for (int c = 0; c < 16; ++c) img.at(0, label * 4 + 1, c) = 1.0f;
    for (int k = 0; k < 8; ++k)
      img.at(1, rng.uniform_int(0, 15), rng.uniform_int(0, 15)) = 1.0f;
    d.add({std::move(img), label});
  }
  return d;
}

TEST(TrainerTest, LearnsSyntheticMapping) {
  const Dataset d = make_row_dataset(240);
  IlPolicy policy(tiny_config(), 3);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3;
  cfg.num_threads = 2;
  Trainer trainer(cfg);
  const TrainReport report = trainer.train(policy, d);
  ASSERT_EQ(report.epochs.size(), 8u);
  EXPECT_GT(report.final_val_accuracy, 0.8);
  // Loss must broadly decrease.
  EXPECT_LT(report.epochs.back().train_loss, report.epochs.front().train_loss);
}

TEST(TrainerTest, ThreadCountsAgreeOnResultQuality) {
  Dataset d;
  for (int i = 0; i < 120; ++i) {
    const int label = i % 3;
    sense::BevImage img(kObservationChannels, 16);
    for (int c = 0; c < 16; ++c) img.at(0, label * 5, c) = 1.0f;
    d.add({std::move(img), label});
  }
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.learning_rate = 3e-3;

  cfg.num_threads = 1;
  IlPolicy p1(tiny_config(), 3);
  const double acc1 = Trainer(cfg).train(p1, d).final_val_accuracy;

  cfg.num_threads = 4;
  IlPolicy p4(tiny_config(), 3);
  const double acc4 = Trainer(cfg).train(p4, d).final_val_accuracy;

  // Far above 1/3 chance on three classes, for any thread count.
  EXPECT_GT(acc1, 0.6);
  EXPECT_GT(acc4, 0.6);
}

TEST(TrainerTest, InferAfterTrainingMatchesForwardOracle) {
  const Dataset d = make_row_dataset(96);
  IlPolicy policy(tiny_config(), 3);
  const Inference before = policy.infer(d[0].observation);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.learning_rate = 3e-3;
  cfg.num_threads = 2;
  Trainer(cfg).train(policy, d);
  for (std::size_t i = 0; i < 8; ++i)
    expect_same_inference(policy.infer(d[i].observation),
                          oracle_infer(policy, d[i].observation),
                          ("sample " + std::to_string(i)).c_str());
  EXPECT_NE(policy.infer(d[0].observation).probs, before.probs);
}

// The per-epoch validation accuracy runs the eval path on the trained
// weights; recount it with the forward(x, false) oracle on the same split.
TEST(TrainerTest, ValAccuracyMatchesForwardOracle) {
  const Dataset d = make_row_dataset(160);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.learning_rate = 3e-3;
  cfg.num_threads = 2;
  cfg.validation_fraction = 0.25;
  // Trainer::train's split: shuffle a copy with shuffle_seed, then split.
  Dataset shuffled = d;
  math::Rng rng(cfg.shuffle_seed);
  shuffled.shuffle(rng);
  const Dataset val = shuffled.split(cfg.validation_fraction).second;
  ASSERT_EQ(val.size(), 40u);

  IlPolicy policy(tiny_config(), 3);
  policy.infer(d[0].observation);  // eval path warm before training
  std::vector<double> reported, oracle;
  Trainer(cfg).train(policy, d, [&](const EpochStats& e) {
    reported.push_back(e.val_accuracy);
    auto [batch, labels] = val.make_batch(0, val.size());
    const nn::Tensor logits = policy.network().forward(batch, false);
    oracle.push_back(nn::CrossEntropyLoss::accuracy(logits, labels));
  });
  ASSERT_EQ(reported.size(), 3u);
  EXPECT_EQ(reported, oracle);
  EXPECT_GT(reported.back(), reported.front());
}

TEST(TrainerTest, EmptyDatasetIsNoop) {
  IlPolicy policy(tiny_config());
  const TrainReport report = Trainer().train(policy, Dataset{});
  EXPECT_TRUE(report.epochs.empty());
  EXPECT_EQ(report.train_samples, 0u);
}

TEST(TrainerTest, EvaluateAccuracyBounds) {
  IlPolicy policy(tiny_config());
  const Dataset d = make_dataset(32);
  const double acc = Trainer::evaluate_accuracy(policy, d);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(TrainerTest, ProgressCallbackInvoked) {
  Dataset d = make_dataset(40);
  IlPolicy policy(tiny_config());
  TrainConfig cfg;
  cfg.epochs = 3;
  int calls = 0;
  Trainer(cfg).train(policy, d, [&](const EpochStats& e) {
    ++calls;
    EXPECT_GE(e.epoch, 1);
    EXPECT_LE(e.epoch, 3);
  });
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace icoil::il
