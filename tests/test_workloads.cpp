#include "workloads/workload.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>

namespace uvmsim {
namespace {

/// Shared invariants every builder must satisfy: accesses stay inside the
/// declared allocations, every workload has work, write targets exist.
struct NamedSpec {
  std::string label;
  std::function<WorkloadSpec()> build;
};

class WorkloadInvariantTest : public ::testing::TestWithParam<NamedSpec> {};

/// The first access of `block`'s first warp's first group.
PageAccess first_access(const KernelDesc& kernel, std::uint32_t block) {
  const std::uint32_t warp = kernel.warps_of(block).first;
  const std::uint32_t group = kernel.groups_of(warp).first;
  return kernel.access(kernel.accesses_of(group).first);
}

TEST_P(WorkloadInvariantTest, AccessesStayInsideAllocations) {
  const WorkloadSpec spec = GetParam().build();
  AllocLayout layout;
  std::vector<std::pair<PageId, PageId>> ranges;  // [first, last)
  for (const auto& a : spec.allocs) {
    const PageId base = layout.add(a.bytes);
    ranges.emplace_back(base, base + ceil_div(a.bytes, kPageSize));
  }
  const KernelDesc& kernel = spec.kernel;
  for (std::uint32_t i = 0; i < kernel.total_accesses(); ++i) {
    const PageId page = kernel.access(i).page;
    bool inside = false;
    for (const auto& [lo, hi] : ranges) {
      if (page >= lo && page < hi) {
        inside = true;
        break;
      }
    }
    ASSERT_TRUE(inside) << "page " << page << " outside allocs";
  }
  EXPECT_GT(kernel.total_accesses(), 0u);
}

TEST_P(WorkloadInvariantTest, HasBlocksAndNonEmptyGroups) {
  const WorkloadSpec spec = GetParam().build();
  const KernelDesc& kernel = spec.kernel;
  EXPECT_GT(kernel.num_blocks(), 0u);
  EXPECT_FALSE(spec.name.empty());
  for (std::uint32_t b = 0; b < kernel.num_blocks(); ++b) {
    EXPECT_FALSE(kernel.warps_of(b).empty());
  }
  for (std::uint32_t g = 0; g < kernel.num_groups(); ++g) {
    EXPECT_FALSE(kernel.accesses_of(g).empty());
  }
}

TEST_P(WorkloadInvariantTest, NoDuplicatePagesWithinGroup) {
  // The coalescer emits one request per distinct page per warp.
  const WorkloadSpec spec = GetParam().build();
  const KernelDesc& kernel = spec.kernel;
  for (std::uint32_t g = 0; g < kernel.num_groups(); ++g) {
    std::set<PageId> pages;
    for (const std::uint32_t i : kernel.accesses_of(g)) {
      const PageId page = kernel.access(i).page;
      EXPECT_TRUE(pages.insert(page).second)
          << "duplicate page " << page << " in one group";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, WorkloadInvariantTest,
    ::testing::Values(
        NamedSpec{"vecadd_paged", [] { return make_vecadd_paged(); }},
        NamedSpec{"vecadd_coalesced",
                  [] { return make_vecadd_coalesced(1 << 16); }},
        NamedSpec{"vecadd_prefetch", [] { return make_vecadd_prefetch(64); }},
        NamedSpec{"regular", [] { return make_regular(16ULL << 20, 4, 64); }},
        NamedSpec{"random", [] { return make_random(16ULL << 20, 7, 4, 64); }},
        NamedSpec{"stream", [] { return make_stream_triad(1 << 16); }},
        NamedSpec{"sgemm",
                  [] {
                    GemmParams p;
                    p.n = 512;
                    return make_gemm(p);
                  }},
        NamedSpec{"dgemm",
                  [] {
                    GemmParams p;
                    p.n = 512;
                    p.double_precision = true;
                    return make_gemm(p);
                  }},
        NamedSpec{"cufft", [] { return make_fft(1 << 16); }},
        NamedSpec{"gauss_seidel",
                  [] {
                    GaussSeidelParams p;
                    p.nx = 512;
                    p.ny = 128;
                    return make_gauss_seidel(p);
                  }},
        NamedSpec{"hpgmg",
                  [] {
                    HpgmgParams p;
                    p.fine_elements_log2 = 14;
                    p.levels = 3;
                    p.vcycles = 1;
                    return make_hpgmg(p);
                  }}),
    [](const auto& info) { return info.param.label; });

TEST(VecAddPaged, ThreadsPagesAndStatements) {
  const auto spec = make_vecadd_paged(32, 3);
  ASSERT_EQ(spec.allocs.size(), 3u);
  EXPECT_EQ(spec.allocs[0].bytes, 96 * kPageSize);
  const KernelDesc& kernel = spec.kernel;
  ASSERT_EQ(kernel.num_blocks(), 1u);
  ASSERT_EQ(kernel.warps_of(0).size(), 1u);
  // 3 statements x (reads group + writes group).
  const IndexRange groups = kernel.groups_of(0);
  EXPECT_EQ(groups.size(), 6u);
  EXPECT_EQ(kernel.accesses_of(groups.first).size(), 64u);
  EXPECT_EQ(kernel.accesses_of(groups.first + 1).size(), 32u);
}

TEST(VecAddPaged, WritesOnlyInWriteGroups) {
  const auto spec = make_vecadd_paged();
  const KernelDesc& kernel = spec.kernel;
  const IndexRange groups = kernel.groups_of(kernel.warps_of(0).first);
  for (const std::uint32_t g : groups) {
    const AccessType expected =
        (g - groups.first) % 2 == 0 ? AccessType::kRead : AccessType::kWrite;
    for (const std::uint32_t i : kernel.accesses_of(g)) {
      EXPECT_EQ(kernel.access(i).type, expected);
    }
  }
}

TEST(VecAddPrefetch, FirstGroupIsAllPrefetch) {
  const auto spec = make_vecadd_prefetch(128);
  const KernelDesc& kernel = spec.kernel;
  const IndexRange g0 = kernel.accesses_of(0);
  EXPECT_EQ(g0.size(), 3 * 128u);
  for (const std::uint32_t i : g0) {
    EXPECT_EQ(kernel.access(i).type, AccessType::kPrefetch);
  }
}

TEST(Gemm, CIsFullyWritten) {
  GemmParams p;
  p.n = 256;
  const auto spec = make_gemm(p);
  AllocLayout layout;
  layout.add(spec.allocs[0].bytes);
  layout.add(spec.allocs[1].bytes);
  const PageId c_base = layout.add(spec.allocs[2].bytes);
  const std::uint64_t c_pages = ceil_div(spec.allocs[2].bytes, kPageSize);

  std::set<PageId> written;
  for (std::uint32_t i = 0; i < spec.kernel.total_accesses(); ++i) {
    const PageAccess a = spec.kernel.access(i);
    if (a.type == AccessType::kWrite) written.insert(a.page);
  }
  for (PageId p2 = c_base; p2 < c_base + c_pages; ++p2) {
    ASSERT_TRUE(written.contains(p2)) << "C page " << p2 << " never written";
  }
}

TEST(Gemm, DoublePrecisionDoublesFootprint) {
  GemmParams s;
  s.n = 256;
  GemmParams d = s;
  d.double_precision = true;
  EXPECT_EQ(make_gemm(d).allocs[0].bytes, 2 * make_gemm(s).allocs[0].bytes);
}

TEST(Gemm, KLoopPrecedesWrites) {
  GemmParams p;
  p.n = 256;
  const auto spec = make_gemm(p);
  const KernelDesc& kernel = spec.kernel;
  const IndexRange groups = kernel.groups_of(kernel.warps_of(0).first);
  // tiles k-steps of reads, then exactly one write group at the end.
  ASSERT_EQ(groups.size(), p.n / p.tile + 1u);
  for (const std::uint32_t g : groups) {
    const AccessType expected =
        g + 1 < groups.last ? AccessType::kRead : AccessType::kWrite;
    for (const std::uint32_t i : kernel.accesses_of(g)) {
      EXPECT_EQ(kernel.access(i).type, expected);
    }
  }
}

TEST(Stream, IterationsAreFullGridSweeps) {
  const auto one = make_stream_triad(1 << 14, 1);
  const auto three = make_stream_triad(1 << 14, 3);
  EXPECT_EQ(three.kernel.num_blocks(), 3 * one.kernel.num_blocks());
  // Each sweep revisits the same pages (iteration 2's first block touches
  // the same pages as iteration 1's).
  EXPECT_EQ(first_access(three.kernel, one.kernel.num_blocks()).page,
            first_access(three.kernel, 0).page);
}

TEST(Fft, PassCountIsLogN) {
  const auto spec = make_fft(1 << 14, 512);
  // Each pass contributes a read group and a write group per warp.
  EXPECT_EQ(spec.kernel.groups_of(spec.kernel.warps_of(0).first).size(),
            2 * 14u);
}

TEST(GaussSeidel, SweepsRevisitTheGrid) {
  GaussSeidelParams p;
  p.nx = 512;
  p.ny = 64;
  p.sweeps = 2;
  const auto two = make_gauss_seidel(p);
  p.sweeps = 1;
  const auto one = make_gauss_seidel(p);
  EXPECT_EQ(two.kernel.num_blocks(), 2 * one.kernel.num_blocks());
}

TEST(Hpgmg, LevelsShrinkAndInitIsInterleaved) {
  HpgmgParams p;
  p.fine_elements_log2 = 15;
  p.levels = 3;
  const auto spec = make_hpgmg(p);
  ASSERT_EQ(spec.allocs.size(), 6u);  // u + r per level
  EXPECT_GT(spec.allocs[0].bytes, spec.allocs[2].bytes);
  EXPECT_GT(spec.allocs[2].bytes, spec.allocs[4].bytes);
  EXPECT_EQ(spec.allocs[0].init.pattern, HostInit::Pattern::kInterleaved);
  EXPECT_EQ(spec.allocs[0].init.threads, 32u);
}

TEST(Random, DeterministicForSameSeed) {
  const auto a = make_random(8ULL << 20, 5, 2, 16);
  const auto b = make_random(8ULL << 20, 5, 2, 16);
  ASSERT_EQ(a.kernel.num_blocks(), b.kernel.num_blocks());
  EXPECT_EQ(first_access(a.kernel, 0).page, first_access(b.kernel, 0).page);
  const auto c = make_random(8ULL << 20, 6, 2, 16);
  EXPECT_NE(first_access(a.kernel, 0).page, first_access(c.kernel, 0).page);
}

}  // namespace
}  // namespace uvmsim
