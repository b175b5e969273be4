#include "common/page_mask.hpp"

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

namespace uvmsim {
namespace {

constexpr std::uint32_t kEdges[] = {0, 63, 64, 511};

std::vector<std::uint32_t> set_pages(const PageMask& m) {
  std::vector<std::uint32_t> pages;
  m.for_each_set([&](std::uint32_t p) { pages.push_back(p); });
  return pages;
}

using Runs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

Runs runs_of(const PageMask& m) {
  Runs runs;
  m.for_each_run([&](std::uint32_t first, std::uint32_t count) {
    runs.emplace_back(first, count);
  });
  return runs;
}

/// Per-page reference for for_each_run: extend a run while pages stay set.
Runs reference_runs(const PageMask& m) {
  Runs runs;
  for (std::uint32_t p = 0; p < kPagesPerVaBlock; ++p) {
    if (!m[p]) continue;
    if (!runs.empty() && runs.back().first + runs.back().second == p) {
      ++runs.back().second;
    } else {
      runs.emplace_back(p, 1);
    }
  }
  return runs;
}

TEST(PageMask, EmptyByDefault) {
  const PageMask m;
  EXPECT_TRUE(m.none());
  EXPECT_FALSE(m.any());
  EXPECT_EQ(m.count(), 0u);
  EXPECT_TRUE(set_pages(m).empty());
  for (std::uint32_t w = 0; w < PageMask::kWords; ++w) EXPECT_EQ(m.word(w), 0u);
}

TEST(PageMask, WordBoundaryBitsLandInTheirWords) {
  for (const std::uint32_t page : kEdges) {
    PageMask m;
    m.set(page);
    EXPECT_TRUE(m.test(page)) << page;
    EXPECT_TRUE(m[page]) << page;
    EXPECT_EQ(m.count(), 1u) << page;
    EXPECT_EQ(m.word(page / 64), std::uint64_t{1} << (page % 64)) << page;
    EXPECT_EQ(set_pages(m), std::vector<std::uint32_t>{page});
    m.reset(page);
    EXPECT_TRUE(m.none()) << page;
  }
}

TEST(PageMask, SetBitsIterateInAscendingOrder) {
  PageMask m;
  for (auto it = std::rbegin(kEdges); it != std::rend(kEdges); ++it) {
    m.set(*it);
  }
  m.set(200);
  EXPECT_EQ(set_pages(m), (std::vector<std::uint32_t>{0, 63, 64, 200, 511}));
  EXPECT_EQ(m.count(), 5u);
}

TEST(PageMask, ComplementAndMaskOutCrossWordBoundaries) {
  PageMask edges;
  for (const std::uint32_t page : kEdges) edges.set(page);
  const PageMask rest = ~edges;
  EXPECT_EQ(rest.count(), kPagesPerVaBlock - 4u);
  for (const std::uint32_t page : kEdges) EXPECT_FALSE(rest[page]) << page;
  EXPECT_TRUE(rest[1]);
  EXPECT_TRUE(rest[62]);
  EXPECT_TRUE(rest[65]);
  EXPECT_TRUE(rest[510]);
  EXPECT_TRUE((rest & edges).none());
  EXPECT_EQ(rest | edges, PageMask{}.set());

  PageMask low;  // pages 0..64: all of word 0 and the first bit of word 1
  for (std::uint32_t p = 0; p <= 64; ++p) low.set(p);
  const PageMask kept = low & ~edges;  // &~ clears 0, 63 and 64 only
  EXPECT_EQ(kept.count(), 62u);
  EXPECT_FALSE(kept[0]);
  EXPECT_FALSE(kept[63]);
  EXPECT_FALSE(kept[64]);
  EXPECT_TRUE(kept[1]);
  EXPECT_EQ(kept.word(1), 0u);
  EXPECT_EQ(set_pages(kept).front(), 1u);
  EXPECT_EQ(set_pages(kept).back(), 62u);
}

TEST(PageMask, SetAndResetAll) {
  PageMask m;
  m.set();
  EXPECT_EQ(m.count(), kPagesPerVaBlock);
  EXPECT_EQ(set_pages(m).size(), kPagesPerVaBlock);
  m.reset();
  EXPECT_TRUE(m.none());
}

TEST(PageMask, RunsSpanWordBoundaries) {
  EXPECT_TRUE(runs_of(PageMask{}).empty());
  EXPECT_EQ(runs_of(PageMask{}.set()), (Runs{{0, kPagesPerVaBlock}}));

  PageMask m;
  for (std::uint32_t p = 60; p < 130; ++p) m.set(p);  // words 0, 1 and 2
  m.set(200).set(511);
  EXPECT_EQ(runs_of(m), (Runs{{60, 70}, {200, 1}, {511, 1}}));

  PageMask edges;
  for (const std::uint32_t page : kEdges) edges.set(page);
  EXPECT_EQ(runs_of(edges), (Runs{{0, 1}, {63, 2}, {511, 1}}));
  EXPECT_EQ(runs_of(~edges), (Runs{{1, 62}, {65, 446}}));
}

TEST(PageMask, RunsMatchPerPageReferenceOnRandomMasks) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    // Vary the density so masks range from sparse singletons to long runs.
    const std::uint32_t density = static_cast<std::uint32_t>(rng() % 100);
    PageMask m;
    for (std::uint32_t p = 0; p < kPagesPerVaBlock; ++p) {
      if (rng() % 100 < density) m.set(p);
    }
    ASSERT_EQ(runs_of(m), reference_runs(m)) << "density " << density;
  }
}

TEST(PageMask, FirstSetFindsTheLowestPage) {
  EXPECT_EQ(PageMask{}.first_set(), kPagesPerVaBlock);
  for (const std::uint32_t page : kEdges) {
    PageMask m;
    m.set(page).set(511);
    EXPECT_EQ(m.first_set(), page);
  }
}

TEST(PageMask, BigPageViewRoundTrips) {
  // Page 511 sits in big page 31, page 64 in big page 4, page 15 in 0.
  PageMask m;
  m.set(15).set(64).set(511);
  EXPECT_EQ(m.big_pages(), (1u << 0) | (1u << 4) | (1u << 31));
  const PageMask whole = PageMask::of_big_pages(m.big_pages());
  EXPECT_EQ(whole.count(), 3 * kPagesPerBigPage);
  for (std::uint32_t p = 0; p < kPagesPerVaBlock; ++p) {
    const std::uint32_t big = p / kPagesPerBigPage;
    EXPECT_EQ(whole[p], big == 0 || big == 4 || big == 31) << p;
  }
  EXPECT_EQ(PageMask::of_big_pages(~0u), PageMask{}.set());
  EXPECT_EQ(PageMask{}.big_pages(), 0u);
}

}  // namespace
}  // namespace uvmsim
