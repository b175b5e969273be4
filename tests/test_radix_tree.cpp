#include "hostos/radix_tree.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

TEST(RadixTree, EmptyTree) {
  RadixTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.node_count(), 0u);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_FALSE(tree.lookup(0).has_value());
  EXPECT_FALSE(tree.erase(0));
}

TEST(RadixTree, SingleInsertLookup) {
  RadixTree tree;
  const auto r = tree.insert(5, 500);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(r.nodes_allocated, 1u);  // just the root
  EXPECT_EQ(tree.height(), 1u);
  ASSERT_TRUE(tree.lookup(5).has_value());
  EXPECT_EQ(*tree.lookup(5), 500u);
  EXPECT_FALSE(tree.lookup(6).has_value());
}

TEST(RadixTree, OverwriteReportsNotInserted) {
  RadixTree tree;
  EXPECT_TRUE(tree.insert(7, 1).inserted);
  const auto r = tree.insert(7, 2);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(*tree.lookup(7), 2u);
}

TEST(RadixTree, HeightGrowsWithKeyMagnitude) {
  RadixTree tree;
  tree.insert(0, 0);
  EXPECT_EQ(tree.height(), 1u);
  const auto r = tree.insert(1ULL << 30, 1);  // needs ceil(31/6) = 6 levels
  EXPECT_TRUE(r.grew_height);
  EXPECT_EQ(tree.height(), 6u);
  // Old key still reachable after growth.
  EXPECT_EQ(*tree.lookup(0), 0u);
  EXPECT_EQ(*tree.lookup(1ULL << 30), 1u);
}

TEST(RadixTree, GrowthAllocatesMoreNodesThanPlainInsert) {
  RadixTree small;
  small.insert(0, 0);
  RadixTree big;
  big.insert(0, 0);
  const auto grown = big.insert(1ULL << 40, 1);
  const auto flat = small.insert(1, 1);
  EXPECT_GT(grown.nodes_allocated, flat.nodes_allocated);
}

TEST(RadixTree, DenseKeysShareNodes) {
  // 64 consecutive keys fit in one leaf: after the first insert the other
  // 63 allocate nothing.
  RadixTree tree;
  unsigned extra_nodes = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    const auto r = tree.insert(k, k);
    if (k > 0) extra_nodes += r.nodes_allocated;
  }
  EXPECT_EQ(extra_nodes, 0u);
  EXPECT_EQ(tree.size(), 64u);
}

TEST(RadixTree, EraseRemovesAndPrunes) {
  RadixTree tree;
  tree.insert(1ULL << 20, 42);
  const auto nodes = tree.node_count();
  EXPECT_GT(nodes, 1u);
  EXPECT_TRUE(tree.erase(1ULL << 20));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.node_count(), 0u);  // eager pruning collapses everything
  EXPECT_FALSE(tree.erase(1ULL << 20));
}

TEST(RadixTree, EraseKeepsSiblings) {
  RadixTree tree;
  tree.insert(100, 1);
  tree.insert(101, 2);
  EXPECT_TRUE(tree.erase(100));
  EXPECT_FALSE(tree.lookup(100).has_value());
  EXPECT_EQ(*tree.lookup(101), 2u);
}

TEST(RadixTree, LookupBeyondHeightIsMiss) {
  RadixTree tree;
  tree.insert(10, 1);
  EXPECT_FALSE(tree.lookup(1ULL << 50).has_value());
}

class RadixTreeRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadixTreeRandomOps, BehavesLikeOrderedMap) {
  // Property: against a reference std::map, a random mix of insert,
  // lookup, and erase over a skewed key distribution always agrees.
  Xoshiro256 rng(GetParam());
  RadixTree tree;
  std::map<std::uint64_t, std::uint64_t> reference;

  for (int op = 0; op < 4000; ++op) {
    // Mix dense small keys with sparse huge ones.
    const std::uint64_t key = rng.bernoulli(0.7)
                                  ? rng.uniform(512)
                                  : rng.next() >> (rng.uniform(30));
    const int what = static_cast<int>(rng.uniform(3));
    if (what == 0) {
      const auto r = tree.insert(key, op);
      EXPECT_EQ(r.inserted, !reference.contains(key));
      reference[key] = op;
    } else if (what == 1) {
      const auto got = tree.lookup(key);
      const auto it = reference.find(key);
      EXPECT_EQ(got.has_value(), it != reference.end());
      if (got && it != reference.end()) {
        EXPECT_EQ(*got, it->second);
      }
    } else {
      EXPECT_EQ(tree.erase(key), reference.erase(key) > 0);
    }
    EXPECT_EQ(tree.size(), reference.size());
  }
  // Final sweep: every reference key resolves.
  for (const auto& [k, v] : reference) {
    ASSERT_TRUE(tree.lookup(k).has_value()) << k;
    EXPECT_EQ(*tree.lookup(k), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixTreeRandomOps,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(RadixTree, NodeCountTracksLiveNodes) {
  RadixTree tree;
  for (std::uint64_t k = 0; k < 1000; ++k) tree.insert(k * 4096, k);
  const auto peak = tree.node_count();
  EXPECT_GT(peak, 0u);
  for (std::uint64_t k = 0; k < 1000; ++k) tree.erase(k * 4096);
  EXPECT_EQ(tree.node_count(), 0u);
  EXPECT_EQ(tree.size(), 0u);
}

}  // namespace
}  // namespace uvmsim
