#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace eevfs {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(OnlineStats, MatchesNaiveComputation) {
  const std::vector<double> xs = {1.0, 2.5, -3.0, 7.25, 0.0, 2.5};
  OnlineStats s;
  double sum = 0.0;
  for (const double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.25);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(OnlineStats, MergeEqualsSingleStream) {
  Rng rng(5);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(3.0);
  a.add(5.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(PercentileTracker, ExactWhenUnderCapacity) {
  PercentileTracker t(100);
  for (int i = 100; i >= 1; --i) t.add(i);
  EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(t.percentile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(t.percentile(1.0), 100.0);
}

TEST(PercentileTracker, EmptyReturnsZero) {
  PercentileTracker t;
  EXPECT_DOUBLE_EQ(t.percentile(0.5), 0.0);
}

TEST(PercentileTracker, ReservoirStaysBounded) {
  PercentileTracker t(64);
  for (int i = 0; i < 10000; ++i) t.add(i);
  EXPECT_EQ(t.count(), 10000u);
  // With uniform input the sampled median should be near the true one.
  EXPECT_NEAR(t.percentile(0.5), 5000.0, 1500.0);
}

TEST(PercentileTracker, ClampsQuantileArgument) {
  PercentileTracker t;
  t.add(1.0);
  t.add(2.0);
  EXPECT_DOUBLE_EQ(t.percentile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(2.0), 2.0);
}

}  // namespace
}  // namespace eevfs
