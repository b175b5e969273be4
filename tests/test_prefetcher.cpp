#include "uvm/prefetcher.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

using PageMask = TreePrefetcher::PageMask;

PageMask mask_of(std::initializer_list<std::uint32_t> pages) {
  PageMask m;
  for (const auto p : pages) m.set(p);
  return m;
}

/// The per-page tree walk TreePrefetcher::compute replaced: the reference
/// its word-parallel form must match exactly.
PageMask reference_compute(double threshold, bool promote,
                           const PageMask& resident, const PageMask& faulted) {
  PageMask target = resident | faulted;
  if (target.none()) return {};

  PageMask expanded = target;
  if (promote) {
    for (std::uint32_t big = 0; big < kBigPagesPerVaBlock; ++big) {
      const std::uint32_t base = big * kPagesPerBigPage;
      bool any = false;
      for (std::uint32_t p = 0; p < kPagesPerBigPage && !any; ++p) {
        any = faulted[base + p];
      }
      if (any) {
        for (std::uint32_t p = 0; p < kPagesPerBigPage; ++p) {
          expanded.set(base + p);
        }
      }
    }
  }

  std::array<std::uint32_t, kBigPagesPerVaBlock> occupied{};
  for (std::uint32_t big = 0; big < kBigPagesPerVaBlock; ++big) {
    const std::uint32_t base = big * kPagesPerBigPage;
    for (std::uint32_t p = 0; p < kPagesPerBigPage; ++p) {
      if (expanded[base + p]) {
        occupied[big] = 1;
        break;
      }
    }
  }

  std::array<std::uint32_t, kBigPagesPerVaBlock> counts = occupied;
  PageMask result = expanded;
  for (std::uint32_t width = 2; width <= kBigPagesPerVaBlock; width *= 2) {
    const std::uint32_t nodes = kBigPagesPerVaBlock / width;
    std::array<std::uint32_t, kBigPagesPerVaBlock> next{};
    for (std::uint32_t n = 0; n < nodes; ++n) {
      next[n] = counts[2 * n] + counts[2 * n + 1];
      const double density =
          static_cast<double>(next[n]) / static_cast<double>(width);
      if (next[n] > 0 && density >= threshold) {
        const std::uint32_t first_page = n * width * kPagesPerBigPage;
        for (std::uint32_t p = 0; p < width * kPagesPerBigPage; ++p) {
          result.set(first_page + p);
        }
        next[n] = width;
      }
    }
    counts = next;
  }
  return result & ~resident & ~faulted;
}

/// Random mask of one of three shapes: scattered pages, whole big pages,
/// or pages clustered inside a few big pages — so trees qualify at every
/// level, not only at the leaves.
PageMask random_mask(Xoshiro256& rng) {
  PageMask m;
  const double p = std::array{0.002, 0.01, 0.05, 0.2, 0.5}[rng.uniform(5)];
  switch (rng.uniform(3)) {
    case 0:
      for (std::uint32_t i = 0; i < kPagesPerVaBlock; ++i) {
        if (rng.bernoulli(p)) m.set(i);
      }
      break;
    case 1:
      for (std::uint32_t big = 0; big < kBigPagesPerVaBlock; ++big) {
        if (!rng.bernoulli(p * 2)) continue;
        for (std::uint32_t i = 0; i < kPagesPerBigPage; ++i) {
          m.set(big * kPagesPerBigPage + i);
        }
      }
      break;
    default:
      for (std::uint32_t big = 0; big < kBigPagesPerVaBlock; ++big) {
        if (!rng.bernoulli(0.3)) continue;
        for (std::uint32_t i = 0; i < kPagesPerBigPage; ++i) {
          if (rng.bernoulli(p)) m.set(big * kPagesPerBigPage + i);
        }
      }
      break;
  }
  return m;
}

constexpr std::array kThresholds{0.25, 0.51, 0.75, 1.0};

void expect_matches_reference(const PageMask& resident,
                              const PageMask& faulted,
                              const std::string& label) {
  for (const double threshold : kThresholds) {
    for (const bool promote : {true, false}) {
      const TreePrefetcher pf(threshold, promote);
      ASSERT_TRUE(pf.compute(resident, faulted) ==
                  reference_compute(threshold, promote, resident, faulted))
          << label << " threshold " << threshold << " promote " << promote;
    }
  }
}

TEST(TreePrefetcher, MatchesPerPageReferenceOnRandomMasks) {
  Xoshiro256 rng(2024);
  for (int pair = 0; pair < 2500; ++pair) {
    const PageMask resident = rng.bernoulli(0.2) ? PageMask{} : random_mask(rng);
    // Faults hit only non-resident pages, as in the driver.
    const PageMask faulted = random_mask(rng) & ~resident;
    expect_matches_reference(resident, faulted,
                             "pair " + std::to_string(pair));
  }
}

TEST(TreePrefetcher, MatchesPerPageReferenceOnEdgeMasks) {
  const PageMask empty;
  const PageMask full = PageMask{}.set();
  expect_matches_reference(empty, empty, "empty");
  expect_matches_reference(full, empty, "full resident");
  expect_matches_reference(empty, full, "full faulted");
  for (std::uint32_t big = 0; big < kBigPagesPerVaBlock; ++big) {
    PageMask one_big;
    for (std::uint32_t i = 0; i < kPagesPerBigPage; ++i) {
      one_big.set(big * kPagesPerBigPage + i);
    }
    const PageMask one_page = mask_of({big * kPagesPerBigPage + 7});
    const std::string label = "big page " + std::to_string(big);
    expect_matches_reference(empty, one_big, label + " faulted");
    expect_matches_reference(one_big, empty, label + " resident");
    expect_matches_reference(empty, one_page, label + " one page faulted");
    expect_matches_reference(~one_big, one_big & one_page,
                             label + " last hole faulted");
  }
}

TEST(TreePrefetcher, NothingFaultedNothingPrefetched) {
  TreePrefetcher pf;
  EXPECT_TRUE(pf.compute({}, {}).none());
}

TEST(TreePrefetcher, PromotionPullsWholeBigPage) {
  // 4 KB -> 64 KB upgrade: one faulted page drags in its 16-page big page.
  TreePrefetcher pf(0.51, /*big_page_promotion=*/true);
  const auto extra = pf.compute({}, mask_of({0}));
  // Pages 1..15 prefetched (page 0 is the fault itself, excluded).
  EXPECT_EQ(extra.count(), 15u);
  for (std::uint32_t p = 1; p < 16; ++p) EXPECT_TRUE(extra[p]) << p;
  EXPECT_FALSE(extra[16]);
}

TEST(TreePrefetcher, NoPromotionNoSpread) {
  TreePrefetcher pf(0.51, /*big_page_promotion=*/false);
  const auto extra = pf.compute({}, mask_of({0}));
  // A lone 4 KB fault occupies its leaf entirely at leaf granularity but
  // cannot satisfy any 2-leaf node (1/2 < 0.51), so nothing extra.
  EXPECT_TRUE(extra.none());
}

TEST(TreePrefetcher, DensityPullsSiblingBigPage) {
  // Faults in both halves of a 2-big-page node: node density 2/2 >= 0.51
  // pulls the full 32-page region.
  TreePrefetcher pf(0.51, false);
  const auto extra = pf.compute({}, mask_of({0, 16}));
  for (std::uint32_t p = 0; p < 32; ++p) {
    if (p == 0 || p == 16) continue;
    EXPECT_TRUE(extra[p]) << p;
  }
  EXPECT_FALSE(extra[32]);
}

TEST(TreePrefetcher, ResidencyCountsTowardDensity) {
  // Half the block already resident + faults in the other half: the root
  // qualifies and the rest of the block is prefetched.
  TreePrefetcher pf(0.51, true);
  PageMask resident;
  for (std::uint32_t p = 0; p < 256; ++p) resident.set(p);
  const auto extra = pf.compute(resident, mask_of({256}));
  // Everything beyond the resident half and the faulted page comes in.
  EXPECT_EQ(extra.count(), kPagesPerVaBlock - 256u - 1u);
}

TEST(TreePrefetcher, NeverReturnsResidentOrFaultedPages) {
  TreePrefetcher pf(0.3, true);
  PageMask resident = mask_of({5, 100, 300});
  PageMask faulted = mask_of({6, 101, 301});
  const auto extra = pf.compute(resident, faulted);
  EXPECT_TRUE((extra & resident).none());
  EXPECT_TRUE((extra & faulted).none());
}

TEST(TreePrefetcher, ConfinedToVaBlock) {
  // By construction the mask is 512 pages; a full-density fault set pulls
  // exactly the block, never beyond.
  TreePrefetcher pf(0.1, true);
  PageMask faulted;
  for (std::uint32_t p = 0; p < kPagesPerVaBlock; p += 16) faulted.set(p);
  const auto extra = pf.compute({}, faulted);
  EXPECT_EQ((extra | faulted).count(), kPagesPerVaBlock);
}

TEST(TreePrefetcher, ThresholdOneRequiresFullOccupancy) {
  TreePrefetcher pf(1.0, false);
  // 31 of 32 big pages occupied: root does not qualify at threshold 1.0.
  PageMask faulted;
  for (std::uint32_t big = 0; big < 31; ++big) faulted.set(big * 16);
  const auto extra = pf.compute({}, faulted);
  EXPECT_FALSE(extra[31 * 16]);
}

class PrefetcherThresholdTest : public ::testing::TestWithParam<double> {};

TEST_P(PrefetcherThresholdTest, LowerThresholdNeverPrefetchesLess) {
  // Property: prefetch aggressiveness is monotone in the threshold.
  const double threshold = GetParam();
  TreePrefetcher loose(threshold, true);
  TreePrefetcher strict(std::min(1.0, threshold + 0.2), true);
  PageMask faulted = mask_of({0, 64, 65, 128, 300, 301, 302});
  const auto a = loose.compute({}, faulted);
  const auto b = strict.compute({}, faulted);
  EXPECT_EQ((b & ~a).count(), 0u)
      << "stricter threshold prefetched pages the looser one skipped";
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PrefetcherThresholdTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7));

}  // namespace
}  // namespace uvmsim
