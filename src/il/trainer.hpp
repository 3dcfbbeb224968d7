#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "il/dataset.hpp"
#include "il/policy.hpp"

namespace icoil::il {

/// Hyperparameters of the behaviour-cloning optimization (eq. 2).
struct TrainConfig {
  int epochs = 15;
  int batch_size = 32;
  double learning_rate = 1e-3;
  double validation_fraction = 0.1;
  std::uint64_t shuffle_seed = 11u;
  /// Worker threads for data-parallel gradient computation (0 = hardware,
  /// capped at 8: gradient shards stop paying off beyond a handful of
  /// workers at these batch sizes; an explicit request is honoured above
  /// the cap). Each batch splits into a fixed number of gradient shards
  /// (Trainer::kShards) whatever the pool width, so the trained weights do
  /// not depend on the thread count.
  int num_threads = 0;
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
};

struct TrainReport {
  std::vector<EpochStats> epochs;
  double final_val_accuracy = 0.0;
  std::size_t train_samples = 0;
  std::size_t val_samples = 0;
};

/// Behaviour-cloning trainer: minimizes the cross-entropy between the DNN
/// output distribution and the expert's discretized actions (eqs. 2-3)
/// with Adam. Gradients are computed data-parallel across worker clones of
/// the policy network (layers cache activations, so workers cannot share
/// one network).
class Trainer {
 public:
  /// Gradient shards per batch (fewer when the batch is smaller). Shard
  /// gradients are summed in shard order, so the result is the same at any
  /// pool width; changing this changes trained weights (policy caches are
  /// keyed on it through sim::policy_fingerprint).
  static constexpr int kShards = 8;

  explicit Trainer(TrainConfig config = {}) : config_(config) {}

  const TrainConfig& config() const { return config_; }

  /// Optional per-epoch progress callback.
  using ProgressFn = std::function<void(const EpochStats&)>;

  TrainReport train(IlPolicy& policy, const Dataset& dataset,
                    ProgressFn progress = nullptr) const;

  /// Accuracy of `policy` on `dataset`, through the same non-training
  /// forward as IlPolicy::infer (no gradient, nothing recorded).
  static double evaluate_accuracy(IlPolicy& policy, const Dataset& dataset,
                                  std::size_t batch_size = 64);

 private:
  TrainConfig config_;
};

}  // namespace icoil::il
