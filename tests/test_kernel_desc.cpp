// The flat kernel IR and its builder: coalescing matches the linear-scan
// rule it replaced, the packing rejects what it cannot hold, and the
// program stays compact.
#include "gpu/kernel_desc.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {
namespace {

/// The coalescing rule as a linear scan of the open group: a page already
/// there is skipped, and a write upgrades a read of it.
void scan_add_page(std::vector<PageAccess>& group, PageId page,
                   AccessType type) {
  for (PageAccess& a : group) {
    if (a.page == page) {
      if (type == AccessType::kWrite && a.type == AccessType::kRead) {
        a.type = AccessType::kWrite;
      }
      return;
    }
  }
  group.push_back({page, type});
}

TEST(KernelBuilder, MatchesLinearScanCoalescingOnRandomSpans) {
  constexpr std::uint64_t kPages = 96;  // small, so pages repeat often
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Xoshiro256 rng(seed);
    KernelBuilder builder("random-spans", kPages);
    std::vector<std::vector<PageAccess>> expected;
    std::vector<SimTime> compute;
    const auto type_of = [](std::uint64_t draw) {
      return static_cast<AccessType>(draw);  // read, write or prefetch
    };
    const std::uint64_t groups = 1 + rng.uniform(60);
    for (std::uint64_t g = 0; g < groups; ++g) {
      std::vector<PageAccess> group;
      const std::uint64_t ops = rng.uniform(10);  // 0: an empty group
      for (std::uint64_t op = 0; op < ops; ++op) {
        const AccessType type = type_of(rng.uniform(3));
        if (rng.bernoulli(0.3)) {
          const PageId page = rng.uniform(kPages);
          builder.add_page(page, type);
          scan_add_page(group, page, type);
          continue;
        }
        const PageId base = rng.uniform(kPages / 2);
        const std::uint64_t offset = rng.uniform(8 * kPageSize);
        const std::uint64_t len = rng.uniform(4 * kPageSize);  // may be 0
        builder.add_span(base, offset, len, type);
        if (len == 0) continue;
        const PageId last = base + (offset + len - 1) / kPageSize;
        for (PageId p = base + offset / kPageSize; p <= last; ++p) {
          scan_add_page(group, p, type);
        }
      }
      compute.push_back(rng.uniform(3000));
      builder.end_group(compute.back());
      expected.push_back(std::move(group));
      if (rng.bernoulli(0.4)) {
        builder.end_warp();
        if (rng.bernoulli(0.5)) builder.end_block();
      }
    }
    builder.end_warp();
    builder.end_block();
    const KernelDesc kernel = builder.finish();

    ASSERT_EQ(kernel.num_groups(), expected.size()) << "seed " << seed;
    std::uint32_t next = 0;
    for (std::uint32_t g = 0; g < kernel.num_groups(); ++g) {
      const IndexRange range = kernel.accesses_of(g);
      EXPECT_EQ(range.first, next) << "seed " << seed << " group " << g;
      ASSERT_EQ(range.size(), expected[g].size())
          << "seed " << seed << " group " << g;
      for (std::uint32_t i = 0; i < range.size(); ++i) {
        EXPECT_EQ(kernel.access(range.first + i), expected[g][i])
            << "seed " << seed << " group " << g << " access " << i;
      }
      EXPECT_EQ(kernel.compute_ns(g), compute[g]);
      next = range.last;
    }
    EXPECT_EQ(kernel.total_accesses(), next);
  }
}

TEST(KernelBuilder, NestsWarpsAndBlocksAndDropsBlocksWithoutWarps) {
  KernelBuilder builder("shape", 16);
  builder.end_block();  // no warps: dropped
  builder.add_page(3, AccessType::kRead);
  builder.end_group(10);
  builder.end_group(20);  // empty group: kept, charges its compute
  builder.end_warp();
  builder.end_warp();  // a warp without groups
  builder.end_block();
  builder.add_page(4, AccessType::kWrite);
  builder.end_group(30);
  builder.end_warp();
  builder.end_block();
  builder.end_block();  // no warps since the last block: dropped
  const KernelDesc kernel = builder.finish();

  ASSERT_EQ(kernel.num_blocks(), 2u);
  EXPECT_EQ(kernel.warps_of(0).first, 0u);
  EXPECT_EQ(kernel.warps_of(0).last, 2u);
  EXPECT_EQ(kernel.warps_of(1).first, 2u);
  EXPECT_EQ(kernel.warps_of(1).last, 3u);
  EXPECT_EQ(kernel.groups_of(0).size(), 2u);
  EXPECT_TRUE(kernel.groups_of(1).empty());
  EXPECT_EQ(kernel.groups_of(2).size(), 1u);
  EXPECT_TRUE(kernel.accesses_of(1).empty());
  EXPECT_EQ(kernel.compute_ns(1), 20u);
  EXPECT_EQ(kernel.access(1), (PageAccess{4, AccessType::kWrite}));
  EXPECT_EQ(kernel.total_accesses(), 2u);
  EXPECT_EQ(kernel.name(), "shape");
}

TEST(KernelBuilder, RejectsWhatThePackingCannotHold) {
  EXPECT_THROW(KernelBuilder("too-many-pages", KernelDesc::kMaxPages + 1),
               std::invalid_argument);

  KernelBuilder builder("k", 64);
  EXPECT_THROW(builder.add_page(KernelDesc::kMaxPages, AccessType::kRead),
               std::invalid_argument);
  EXPECT_THROW(builder.add_page(64, AccessType::kRead), std::invalid_argument);
  // A span running past the last page is rejected before any of it lands.
  EXPECT_THROW(builder.add_span(0, 63 * kPageSize, 2 * kPageSize,
                                AccessType::kRead),
               std::invalid_argument);
  EXPECT_THROW(builder.end_group(SimTime{1} << 32), std::invalid_argument);

  builder.add_page(63, AccessType::kPrefetch);
  builder.end_group(0);
  builder.end_warp();
  builder.end_block();
  const KernelDesc kernel = builder.finish();
  ASSERT_EQ(kernel.total_accesses(), 1u);
  EXPECT_EQ(kernel.access(0), (PageAccess{63, AccessType::kPrefetch}));
}

TEST(KernelBuilder, RejectsClosingAroundAnOpenLevel) {
  KernelBuilder builder("k", 8);
  builder.add_page(1, AccessType::kRead);
  EXPECT_THROW(builder.end_warp(), std::logic_error);
  EXPECT_THROW(builder.finish(), std::logic_error);
  builder.end_group(0);
  EXPECT_THROW(builder.end_block(), std::logic_error);
  builder.end_warp();
  EXPECT_THROW(builder.finish(), std::logic_error);
  builder.end_block();
  EXPECT_EQ(builder.finish().total_accesses(), 1u);
}

// Memory guard: a return to a heavy IR (16 bytes per access or a heap
// allocation per group) fails here, in every CI job that runs unit tests.
TEST(KernelDesc, GemmHoldsAtMostFiveBytesPerAccess) {
  GemmParams params;
  params.n = 1024;
  const WorkloadSpec spec = make_gemm(params);
  ASSERT_EQ(spec.kernel.total_accesses(), 540'672u);
  EXPECT_LE(spec.kernel.heap_bytes(), 5 * spec.kernel.total_accesses());
}

}  // namespace
}  // namespace uvmsim
