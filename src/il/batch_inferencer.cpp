#include "il/batch_inferencer.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace icoil::il {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

BatchInferencer::BatchInferencer(IlPolicy& policy, std::size_t max_batch)
    : policy_(policy), max_batch_(max_batch) {}

std::size_t BatchInferencer::submit(const sense::BevImage& observation) {
  const int side = policy_.config().bev_size;
  assert(observation.channels() == kObservationChannels &&
         observation.size() == side);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto t0 = Clock::now();
  const std::size_t slot = count_++;
  staged_.resize({static_cast<int>(count_), kObservationChannels, side, side});
  const std::vector<float>& src = observation.data();
  std::copy(src.begin(), src.end(), staged_.data() + slot * src.size());
  stats_.gather_seconds += seconds_since(t0);
  return slot;
}

void BatchInferencer::run_tick() {
  const std::size_t n = count_;
  if (n == 0) return;
  count_ = 0;
  if (results_.size() < n) results_.resize(n);

  stats_.ticks += 1;
  stats_.requests += n;

  const int side = policy_.config().bev_size;
  const std::size_t item =
      static_cast<std::size_t>(kObservationChannels) * side * side;
  const int m = policy_.num_classes();
  const std::size_t cap = max_batch_ == 0 ? n : max_batch_;

  for (std::size_t start = 0; start < n; start += cap) {
    const std::size_t bn = std::min(cap, n - start);

    const nn::Tensor* batch = &staged_;
    if (bn != n) {
      // Chunked tick: copy this slice of the staging tensor. Counted as
      // gather — it is batching machinery, not network time.
      const auto t0 = Clock::now();
      chunk_.resize({static_cast<int>(bn), kObservationChannels, side, side});
      std::copy(staged_.data() + start * item,
                staged_.data() + (start + bn) * item, chunk_.data());
      stats_.gather_seconds += seconds_since(t0);
      batch = &chunk_;
    }

    const auto t1 = Clock::now();
    const nn::Tensor& logits =
        policy_.network().forward(*batch, ws_, /*training=*/false);
    stats_.forward_seconds += seconds_since(t1);
    stats_.batches += 1;
    stats_.max_batch = std::max(stats_.max_batch, bn);

    const auto t2 = Clock::now();
    assert(logits.dim(0) == static_cast<int>(bn) && logits.dim(1) == m);
    for (std::size_t i = 0; i < bn; ++i)
      results_[start + i] = IlPolicy::inference_from_logits(
          logits.data() + i * static_cast<std::size_t>(m), m);
    stats_.scatter_seconds += seconds_since(t2);
  }
}

}  // namespace icoil::il
