#include "il/trainer.hpp"

#include <algorithm>
#include <cassert>

#include "core/task_pool.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace icoil::il {

namespace {

void copy_params(const std::vector<nn::Param*>& src,
                 const std::vector<nn::Param*>& dst) {
  assert(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i]->value = src[i]->value;
}

}  // namespace

double Trainer::evaluate_accuracy(IlPolicy& policy, const Dataset& dataset,
                                  std::size_t batch_size) {
  if (dataset.empty()) return 0.0;
  std::size_t correct_total = 0;
  nn::Workspace ws;
  for (std::size_t begin = 0; begin < dataset.size(); begin += batch_size) {
    const std::size_t count = std::min(batch_size, dataset.size() - begin);
    auto [batch, labels] = dataset.make_batch(begin, count);
    const nn::Tensor& logits =
        policy.network().forward(batch, ws, /*training=*/false);
    correct_total += static_cast<std::size_t>(
        nn::CrossEntropyLoss::accuracy(logits, labels) * static_cast<double>(count) +
        0.5);
  }
  return static_cast<double>(correct_total) / static_cast<double>(dataset.size());
}

TrainReport Trainer::train(IlPolicy& policy, const Dataset& dataset,
                           ProgressFn progress) const {
  TrainReport report;
  if (dataset.empty()) return report;

  Dataset shuffled = dataset;
  math::Rng rng(config_.shuffle_seed);
  shuffled.shuffle(rng);
  auto [train_set, val_set] = shuffled.split(config_.validation_fraction);
  report.train_samples = train_set.size();
  report.val_samples = val_set.size();
  if (train_set.empty()) return report;

  const int threads = core::TaskPool::recommended_workers(
      config_.num_threads, static_cast<int>(train_set.size()),
      config_.thread_cap);

  // One clone per gradient shard, each with its own workspace: layers
  // record activations for backward and forward into per-shard buffers.
  // The shard count is fixed (not the pool width), so the per-shard sums
  // and their reduction order do not depend on the thread count.
  std::vector<std::unique_ptr<IlPolicy>> workers;
  for (int t = 0; t < kShards; ++t) workers.push_back(policy.clone());
  std::vector<nn::Workspace> workspaces(static_cast<std::size_t>(kShards));

  // One persistent pool for the whole training run; wait_idle() is the
  // per-batch barrier (the old code spawned and joined a fresh thread set
  // for every batch).
  core::TaskPool pool(threads);

  const auto main_params = policy.network().params();
  nn::Adam optimizer(main_params, config_.learning_rate);

  struct ShardResult {
    double loss_sum = 0.0;  // loss * shard size
    double correct = 0.0;
  };

  for (int epoch = 1; epoch <= config_.epochs; ++epoch) {
    train_set.shuffle(rng);
    double epoch_loss = 0.0;
    double epoch_correct = 0.0;

    for (std::size_t begin = 0; begin < train_set.size();
         begin += static_cast<std::size_t>(config_.batch_size)) {
      const std::size_t batch_n = std::min<std::size_t>(
          static_cast<std::size_t>(config_.batch_size), train_set.size() - begin);
      const int active = static_cast<int>(
          std::min<std::size_t>(static_cast<std::size_t>(kShards), batch_n));
      const std::size_t shard = (batch_n + active - 1) / active;

      policy.network().zero_grad();
      std::vector<ShardResult> results(static_cast<std::size_t>(active));
      for (int t = 0; t < active; ++t) {
        // Shards are keyed by shard index (not pool worker index), so any
        // worker may run any shard.
        pool.submit([&, t](const core::TaskPool::Context&) {
          IlPolicy& w = *workers[static_cast<std::size_t>(t)];
          copy_params(main_params, w.network().params());
          w.network().zero_grad();
          const std::size_t lo = begin + static_cast<std::size_t>(t) * shard;
          const std::size_t n =
              std::min(shard, begin + batch_n > lo ? begin + batch_n - lo : 0);
          if (n == 0) return;
          auto [batch, labels] = train_set.make_batch(lo, n);
          nn::Workspace& ws = workspaces[static_cast<std::size_t>(t)];
          const nn::Tensor& logits =
              w.network().forward(batch, ws, /*training=*/true);
          const auto ce = nn::CrossEntropyLoss::compute(logits, labels);
          w.network().backward(ce.grad);
          results[static_cast<std::size_t>(t)].loss_sum =
              static_cast<double>(ce.loss) * static_cast<double>(n);
          results[static_cast<std::size_t>(t)].correct =
              nn::CrossEntropyLoss::accuracy(logits, labels) *
              static_cast<double>(n);
        });
      }
      pool.wait_idle();

      // Average the shard gradients (each shard's CE already divides by its
      // own size, so reweight by shard/batch).
      for (int t = 0; t < active; ++t) {
        const std::size_t lo = begin + static_cast<std::size_t>(t) * shard;
        const std::size_t n =
            std::min(shard, begin + batch_n > lo ? begin + batch_n - lo : 0);
        if (n == 0) continue;
        const float scale =
            static_cast<float>(n) / static_cast<float>(batch_n);
        const auto wparams = workers[static_cast<std::size_t>(t)]->network().params();
        for (std::size_t p = 0; p < main_params.size(); ++p)
          for (std::size_t i = 0; i < main_params[p]->grad.size(); ++i)
            main_params[p]->grad[i] += scale * wparams[p]->grad[i];
        epoch_loss += results[static_cast<std::size_t>(t)].loss_sum;
        epoch_correct += results[static_cast<std::size_t>(t)].correct;
      }
      optimizer.step();
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = epoch_loss / static_cast<double>(train_set.size());
    stats.train_accuracy = epoch_correct / static_cast<double>(train_set.size());
    stats.val_accuracy =
        val_set.empty() ? 0.0 : evaluate_accuracy(policy, val_set);
    report.epochs.push_back(stats);
    if (progress) progress(stats);
  }

  report.final_val_accuracy =
      report.epochs.empty() ? 0.0 : report.epochs.back().val_accuracy;
  return report;
}

}  // namespace icoil::il
