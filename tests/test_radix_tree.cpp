#include "hostos/radix_tree.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

TEST(RadixTree, EmptyTree) {
  RadixTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.node_count(), 0u);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_FALSE(tree.contains(0));
}

TEST(RadixTree, SingleInsertLookup) {
  RadixTree tree;
  const auto r = tree.insert(5);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(r.nodes_allocated, 1u);  // just the root
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(tree.contains(5));
  EXPECT_FALSE(tree.contains(6));
}

TEST(RadixTree, OverwriteReportsNotInserted) {
  RadixTree tree;
  tree.insert(1ULL << 20);
  const auto nodes = tree.node_count();
  EXPECT_TRUE(tree.insert(7).inserted);
  const auto r = tree.insert(7);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(r.nodes_allocated, 0u);
  EXPECT_FALSE(r.grew_height);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_GT(tree.node_count(), nodes);  // 7's path was new the first time
  EXPECT_TRUE(tree.contains(7));
}

TEST(RadixTree, HeightGrowsWithKeyMagnitude) {
  RadixTree tree;
  tree.insert(0);
  EXPECT_EQ(tree.height(), 1u);
  const auto r = tree.insert(1ULL << 30);  // needs ceil(31/6) = 6 levels
  EXPECT_TRUE(r.grew_height);
  EXPECT_EQ(tree.height(), 6u);
  // Old key still reachable after growth.
  EXPECT_TRUE(tree.contains(0));
  EXPECT_TRUE(tree.contains(1ULL << 30));
}

TEST(RadixTree, GrowthAllocatesMoreNodesThanPlainInsert) {
  RadixTree small;
  small.insert(0);
  RadixTree big;
  big.insert(0);
  const auto grown = big.insert(1ULL << 40);
  const auto flat = small.insert(1);
  EXPECT_GT(grown.nodes_allocated, flat.nodes_allocated);
}

TEST(RadixTree, DenseKeysShareNodes) {
  // 64 consecutive keys fit in one leaf: after the first insert the other
  // 63 allocate nothing.
  RadixTree tree;
  unsigned extra_nodes = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    const auto r = tree.insert(k);
    if (k > 0) extra_nodes += r.nodes_allocated;
  }
  EXPECT_EQ(extra_nodes, 0u);
  EXPECT_EQ(tree.size(), 64u);
}

TEST(RadixTree, LookupBeyondHeightIsMiss) {
  RadixTree tree;
  tree.insert(10);
  EXPECT_FALSE(tree.contains(1ULL << 50));
}

/// The nodes a tree of height `height` over `keys` must hold: one per
/// distinct key prefix at each level, plus the root-growth chain, which
/// keeps prefix 0 alive on every level from the first key's height up.
std::uint64_t expected_nodes(const std::set<std::uint64_t>& keys,
                             unsigned height, unsigned first_height) {
  std::uint64_t nodes = 0;
  for (unsigned level = 1; level <= height; ++level) {
    const unsigned shift = level * RadixTree::kMapShift;
    std::set<std::uint64_t> prefixes;
    for (const std::uint64_t k : keys) {
      prefixes.insert(shift >= 64 ? 0 : k >> shift);
    }
    if (level >= first_height) prefixes.insert(0);
    nodes += prefixes.size();
  }
  return nodes;
}

class RadixTreeRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadixTreeRandomOps, BehavesLikeOrderedMap) {
  // Property: against a reference std::set, a random mix of insert and
  // contains over a skewed key distribution always agrees, and the node
  // count is what the reference keys force.
  Xoshiro256 rng(GetParam());
  RadixTree tree;
  std::set<std::uint64_t> reference;
  unsigned first_height = 0;

  for (int op = 0; op < 4000; ++op) {
    // Mix dense small keys with sparse huge ones.
    const std::uint64_t key = rng.bernoulli(0.7)
                                  ? rng.uniform(512)
                                  : rng.next() >> (rng.uniform(30));
    if (rng.bernoulli(0.5)) {
      const unsigned height_before = tree.height();
      const std::uint64_t nodes_before = tree.node_count();
      const auto r = tree.insert(key);
      EXPECT_EQ(r.inserted, reference.insert(key).second);
      EXPECT_EQ(tree.node_count(), nodes_before + r.nodes_allocated);
      if (!r.inserted) {
        EXPECT_EQ(r.nodes_allocated, 0u);
      }
      EXPECT_EQ(r.grew_height,
                height_before != 0 && tree.height() > height_before);
      if (first_height == 0) first_height = tree.height();
    } else {
      EXPECT_EQ(tree.contains(key), reference.contains(key));
    }
    EXPECT_EQ(tree.size(), reference.size());
    if (op % 1000 == 999) {
      EXPECT_EQ(tree.node_count(),
                expected_nodes(reference, tree.height(), first_height))
          << "op " << op;
    }
  }
  // Final sweep: every reference key resolves.
  for (const std::uint64_t k : reference) {
    ASSERT_TRUE(tree.contains(k)) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixTreeRandomOps,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(RadixTree, NodeCountTracksLiveNodes) {
  RadixTree tree;
  std::uint64_t allocated = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    allocated += tree.insert(k * 4096).nodes_allocated;
  }
  EXPECT_GT(tree.node_count(), 0u);
  EXPECT_EQ(tree.node_count(), allocated);
  // Re-inserting every key allocates nothing.
  for (std::uint64_t k = 0; k < 1000; ++k) tree.insert(k * 4096);
  EXPECT_EQ(tree.node_count(), allocated);
  EXPECT_EQ(tree.size(), 1000u);
}

}  // namespace
}  // namespace uvmsim
