#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "metrics.hpp"

namespace pb = perfbench;

TEST(TailQuantile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(pb::tail_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(pb::tail_quantile(100000), 0.99);
  EXPECT_DOUBLE_EQ(pb::tail_quantile(500), 0.98);
  EXPECT_DOUBLE_EQ(pb::tail_quantile(200), 0.95);
  // Fewer than 20 samples: only the median has ten on each side.
  EXPECT_DOUBLE_EQ(pb::tail_quantile(19), 0.5);
  EXPECT_DOUBLE_EQ(pb::tail_quantile(0), 0.5);
  for (std::size_t n : {20u, 37u, 250u, 999u, 1000u, 4321u}) {
    const double q = pb::tail_quantile(n);
    EXPECT_GE(static_cast<double>(n) * (1.0 - q), 10.0 - 1e-9) << n;
  }
}

TEST(TailQuantile, TailReadsThePercentileItNames) {
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(i);  // 0..499
  const pb::Tail t = pb::tail(v);
  EXPECT_DOUBLE_EQ(t.q, 0.98);
  EXPECT_NEAR(t.value, 0.98 * 499, 1e-9);
  EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
}

TEST(SelfTime, SpanMinusChildren) {
  EXPECT_DOUBLE_EQ(pb::self_time(0, 10, {}), 10.0);
  EXPECT_DOUBLE_EQ(pb::self_time(0, 10, {{1, 3}, {4, 6}}), 6.0);
  // Overlapping children count once; children are clipped to the span.
  EXPECT_DOUBLE_EQ(pb::self_time(0, 10, {{1, 3}, {2, 5}, {8, 12}}), 4.0);
  EXPECT_DOUBLE_EQ(pb::self_time(0, 10, {{-5, 20}}), 0.0);
  EXPECT_DOUBLE_EQ(pb::self_time(0, 10, {{4, 6}, {1, 3}}), 6.0);
}

TEST(Digest, DeterministicOrderAndBitSensitive) {
  auto make = [](double park_a, double park_b) {
    pb::Digest d;
    d.add_episode(0, 500, park_a, 0.75);
    d.add_episode(2, 64, park_b, 1.25);
    return d.value();
  };
  EXPECT_EQ(make(25.0, 3.2), make(25.0, 3.2));
  EXPECT_NE(make(25.0, 3.2), make(3.2, 25.0));
  EXPECT_NE(make(25.0, 3.2), make(std::nextafter(25.0, 26.0), 3.2));
  pb::Digest a, b;
  a.add_episode(0, 500, 25.0, 0.75);
  b.add_episode(1, 500, 25.0, 0.75);
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(pb::Digest().value(), 0xcbf29ce484222325ull);  // FNV-1a offset
}
