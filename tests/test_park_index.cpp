#include "gpu/park_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

std::vector<std::uint32_t> nodes_on(const ParkIndex& index, PageId page) {
  std::vector<std::uint32_t> nodes;
  index.for_each_node(page, [&](std::uint32_t n) { nodes.push_back(n); });
  std::ranges::sort(nodes);
  return nodes;
}

TEST(ParkIndex, FindsEachPagesNodes) {
  ParkIndex index;
  index.reset(8);
  EXPECT_TRUE(index.empty());
  index.link(0, 5);
  index.link(3, 5);
  index.link(1, 9);
  EXPECT_EQ(nodes_on(index, 5), (std::vector<std::uint32_t>{0, 3}));
  EXPECT_EQ(nodes_on(index, 9), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(nodes_on(index, 7).empty());

  // Unlinking the chain's first, then its last node; page 5 leaves.
  index.unlink(3);
  EXPECT_EQ(nodes_on(index, 5), (std::vector<std::uint32_t>{0}));
  index.unlink(0);
  EXPECT_TRUE(nodes_on(index, 5).empty());
  std::vector<PageId> swept;
  index.for_each_node_if(
      [&](PageId page) {
        swept.push_back(page);
        return true;
      },
      [](std::uint32_t) {});
  EXPECT_EQ(swept, (std::vector<PageId>{9}));
  index.unlink(1);
  EXPECT_TRUE(index.empty());
}

TEST(ParkIndex, MatchesAMapUnderRandomLinksAndUnlinks) {
  // Random pages share chains, collide in the index (an arithmetic run of
  // pages would not: the multiplicative hash spreads it evenly), and force
  // its growth and its backward-shift deletion. Every step is checked
  // against a map.
  constexpr std::uint32_t kNodes = 600;
  ParkIndex index;
  index.reset(kNodes);
  std::map<std::uint32_t, PageId> linked;  // node -> page
  Xoshiro256 rng(42);
  std::vector<PageId> pages(300);
  for (PageId& page : pages) page = rng.uniform(1 << 20);
  for (int step = 0; step < 20000; ++step) {
    const auto node = static_cast<std::uint32_t>(rng.uniform(kNodes));
    if (const auto it = linked.find(node); it != linked.end()) {
      index.unlink(node);
      linked.erase(it);
    } else {
      const PageId page = pages[rng.uniform(pages.size())];
      index.link(node, page);
      linked[node] = page;
    }
    if (step % 500 != 0) continue;
    std::map<PageId, std::vector<std::uint32_t>> want;
    for (const auto& [n, page] : linked) want[page].push_back(n);
    std::set<PageId> swept;
    std::vector<std::uint32_t> swept_nodes;
    index.for_each_node_if(
        [&](PageId page) {
          EXPECT_TRUE(swept.insert(page).second) << "page swept twice";
          return page % 2 == 0;
        },
        [&](std::uint32_t n) { swept_nodes.push_back(n); });
    std::vector<std::uint32_t> want_swept;
    for (const auto& [page, nodes] : want) {
      ASSERT_EQ(nodes_on(index, page), nodes) << "step " << step;
      if (page % 2 == 0) {
        want_swept.insert(want_swept.end(), nodes.begin(), nodes.end());
      }
    }
    EXPECT_EQ(swept.size(), want.size());
    std::ranges::sort(swept_nodes);
    std::ranges::sort(want_swept);
    EXPECT_EQ(swept_nodes, want_swept);
    EXPECT_EQ(index.empty(), linked.empty());
  }
}

TEST(ParkIndex, ClearDropsEveryPage) {
  ParkIndex index;
  index.reset(4);
  index.link(0, 1);
  index.link(1, 2);
  index.clear();
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(nodes_on(index, 1).empty());
  index.link(1, 3);  // a cleared node links afresh
  EXPECT_EQ(nodes_on(index, 3), (std::vector<std::uint32_t>{1}));
}

}  // namespace
}  // namespace uvmsim
