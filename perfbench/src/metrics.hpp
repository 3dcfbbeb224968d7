#pragma once

// Metric math of the benchmark: the tail-percentile rule, span self time and
// the outcome digest. Header-only so the unit tests link nothing else.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "mathkit/stats.hpp"

namespace perfbench {

/// The highest quantile (at most `want`) that leaves at least `min_beyond`
/// of `n` samples above it, so a tail figure always rests on ten or more
/// samples. Falls back to the median when even that is not possible.
inline double tail_quantile(std::size_t n, double want = 0.99,
                            std::size_t min_beyond = 10) {
  if (n < 2 * min_beyond) return 0.5;
  const double q = 1.0 - static_cast<double>(min_beyond) / static_cast<double>(n);
  return std::min(want, q);
}

/// Interpolated percentile of unsorted samples, q in [0, 1], through the
/// program's own percentile kernel.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return icoil::math::percentile_sorted(samples, 100.0 * q);
}

/// A timing's tail: the value at tail_quantile(n) and the quantile used.
struct Tail {
  double value = 0.0;
  double q = 0.0;
};

inline Tail tail(const std::vector<double>& samples, double want = 0.99) {
  const double q = tail_quantile(samples.size(), want);
  return {quantile(samples, q), q};
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Self time of a span [t0, t1]: its duration minus the part of it that the
/// union of its children's intervals covers (children clipped to the span,
/// overlaps counted once).
inline double self_time(double t0, double t1,
                        std::vector<std::pair<double, double>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, t0);
    c.second = std::min(c.second, t1);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double end = t0;
  for (const auto& [a, b] : children) {
    if (b <= a) continue;
    const double from = std::max(a, end);
    if (b > from) {
      covered += b - from;
      end = b;
    }
  }
  return (t1 - t0) - covered;
}

/// FNV-1a (64-bit) over episode outcomes; doubles are hashed by their bits,
/// so the digest changes when any outcome changes in its last bit.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  /// One episode: how it ended, how many frames it ran, when it parked (or
  /// ended) and its closest approach to an obstacle.
  void add_episode(int outcome, std::uint64_t frames, double park_time,
                   double min_clearance) {
    add(static_cast<std::uint64_t>(outcome));
    add(frames);
    add(park_time);
    add(min_clearance);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
