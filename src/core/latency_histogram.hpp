#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace icoil::core {

/// Five-number latency digest (count/mean/p50/p90/p99/max, milliseconds):
/// the serialization-friendly snapshot a LatencyHistogram folds down to.
/// This is THE latency-summary shape — serve::Frontend produces it,
/// serve::ServeStats carries it, bench tables print and record it.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Exact-sample latency accumulator with interpolated percentiles — the one
/// place per-frame/queue-time latency math lives (previously ad-hoc
/// percentile folds copied into each serving driver). Samples are kept
/// verbatim (a serving run is at most a few million doubles) so percentiles
/// are exact and merge() loses nothing; the sort is lazy and cached.
/// Not thread-safe: accumulate per worker, merge() on the fold.
class LatencyHistogram {
 public:
  void reserve(std::size_t n) { samples_.reserve(n); }

  void add(double ms) {
    samples_.push_back(ms);
    sum_ += ms;
    sorted_ = false;
  }

  void merge(const LatencyHistogram& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const {
    return samples_.empty() ? 0.0
                            : sum_ / static_cast<double>(samples_.size());
  }

  /// Interpolated percentile, p in [0, 100]; 0 when empty.
  double percentile(double p) const;

  LatencySummary summary() const;

 private:
  void sort() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

}  // namespace icoil::core
