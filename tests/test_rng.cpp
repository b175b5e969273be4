#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace uvmsim {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, SameSeedSameStream) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, UniformStaysBelowBound) {
  Xoshiro256 rng(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform(bound), bound) << "bound=" << bound;
    }
  }
}

TEST(Xoshiro256, UniformBoundOneIsAlwaysZero) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Xoshiro256, UniformCoversAllResidues) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, UniformRealInHalfOpenUnitInterval) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform_real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro256, BernoulliExtremes) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Xoshiro256, BernoulliRateRoughlyMatchesP) {
  Xoshiro256 rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  const double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Xoshiro256, MeanOfUniformRealIsCentered) {
  Xoshiro256 rng(29);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.uniform_real();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

}  // namespace
}  // namespace uvmsim
