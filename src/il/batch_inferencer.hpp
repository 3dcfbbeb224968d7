#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "il/policy.hpp"
#include "nn/sequential.hpp"

namespace icoil::il {

/// Counters the batching service keeps so the serve report can show what
/// batching actually did: how many ticks had work, how large the batches
/// were, and how much time went into the batched forward versus the
/// gather/scatter machinery around it.
struct BatchStats {
  std::uint64_t ticks = 0;       ///< run_tick calls that had pending work
  std::uint64_t requests = 0;    ///< observations submitted
  std::uint64_t batches = 0;     ///< batched forward passes run
  std::size_t max_batch = 0;     ///< largest single forward batch
  double gather_seconds = 0.0;   ///< packing observations into batch tensors
  double forward_seconds = 0.0;  ///< the batched network forwards themselves
  double scatter_seconds = 0.0;  ///< unpacking logits into Inference results

  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
};

/// Batched inference front-end for one shared IlPolicy. Concurrent sessions
/// submit() their observation for the current tick (thread-safe; the copy
/// into the staging tensor is the gather step), the driver then calls
/// run_tick() once — a single forward over the packed (N,C,H,W) batch on
/// shared weights — and each session reads back result(slot). Results are
/// bit-identical to calling policy.infer() per observation, which runs the
/// same kernels on a batch of one: they never reassociate
/// per-element sums (mathkit/gemm.hpp) and every layer treats batch rows
/// independently.
class BatchInferencer {
 public:
  /// `max_batch` caps one forward pass; a tick with more submissions runs
  /// in chunks of that size, the last one ragged. 0 means unbounded.
  explicit BatchInferencer(IlPolicy& policy, std::size_t max_batch = 32);

  /// Stage one observation for this tick. Returns the slot to read the
  /// result from after run_tick(). Safe to call from worker threads.
  std::size_t submit(const sense::BevImage& observation);

  /// Gather -> batched forward(s) -> scatter for everything submitted since
  /// the previous tick. Call from one thread, with no submit() in flight.
  void run_tick();

  /// Result for a slot returned by submit(); valid until the tick after
  /// the next run_tick().
  const Inference& result(std::size_t slot) const { return results_[slot]; }

  std::size_t pending() const { return count_; }
  std::size_t max_batch() const { return max_batch_; }
  const BatchStats& stats() const { return stats_; }

 private:
  IlPolicy& policy_;
  std::size_t max_batch_;
  std::mutex mutex_;
  nn::Tensor staged_;  ///< (N,C,H,W) staging tensor; N grows with submits
  std::size_t count_ = 0;
  nn::Tensor chunk_;  ///< sub-batch copy when a tick exceeds max_batch
  nn::Workspace ws_;
  std::vector<Inference> results_;
  BatchStats stats_;
};

}  // namespace icoil::il
