#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(LinearFit, ExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0);
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-10);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFit, DegenerateInputs) {
  EXPECT_EQ(linear_fit({}, {}).n, 0u);
  EXPECT_EQ(linear_fit({1.0}, {2.0}).n, 1u);
  EXPECT_DOUBLE_EQ(linear_fit({1.0}, {2.0}).slope, 0.0);
  // Vertical line: identical x values.
  const LinearFit fit = linear_fit({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
}

TEST(LinearFit, NoisyLineRecoversSlopeSign) {
  Xoshiro256 rng(99);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + 10 * (rng.uniform_real() - 0.5));
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 0.9), 5.0);
}

TEST(Percentile, ClampsQuantile) {
  std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 3.0);
}

TEST(Log2Histogram, BucketBoundsAndCounts) {
  Log2Histogram h;
  h.add(0);   // bucket 0: [0, 1)
  h.add(1);   // bucket 1: [1, 2)
  h.add(2);   // bucket 2: [2, 4)
  h.add(3);   // bucket 2
  h.add(4);   // bucket 3: [4, 8)
  h.add(1024);  // bucket 11
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.sum(), 1034u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  EXPECT_EQ(h.used_buckets(), 12u);
  EXPECT_EQ(Log2Histogram::bucket_lo(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_hi(2), 4u);
}

// Regression: a tail percentile landing in a bucket that holds a single
// sample must interpolate to the bucket midpoint, not collapse to the
// power-of-two lower edge (which systematically underestimates p99).
TEST(Log2Histogram, PercentileSingleElementBucketInterpolates) {
  Log2Histogram h;
  for (int i = 0; i < 98; ++i) h.add(3);  // ranks 0..97 in bucket [2, 4)
  h.add(40);                              // rank 98, alone in [32, 64)
  h.add(100);                             // rank 99, alone in [64, 128)
  // rank(p99) = 98.01 -> inside the single-element [32, 64) bucket.
  const double p99 = h.percentile(0.99);
  EXPECT_GT(p99, 32.0) << "p99 collapsed to the tail bucket's lower bound";
  EXPECT_NEAR(p99, 32.0 + 32.0 * 0.51, 1e-9);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 96.0);  // midpoint of [64, 128)
  EXPECT_NEAR(h.percentile(0.5), 2.0 + 2.0 * 50.0 / 98.0, 1e-9);
  EXPECT_DOUBLE_EQ(Log2Histogram{}.percentile(0.99), 0.0);
}

}  // namespace
}  // namespace uvmsim
