#include "uvm/va_space.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(AllocLayout, BlockAlignedPlacement) {
  AllocLayout layout;
  EXPECT_EQ(layout.add(100), 0u);  // 100 bytes -> 1 block
  EXPECT_EQ(layout.add(kVaBlockSize), kPagesPerVaBlock);
  EXPECT_EQ(layout.add(kVaBlockSize + 1), 2 * kPagesPerVaBlock);
  EXPECT_EQ(layout.next_free_page(), 4 * kPagesPerVaBlock);
  EXPECT_EQ(layout.total_blocks(), 4u);
}

TEST(VaSpace, AllocationMatchesLayout) {
  VaSpace space;
  const auto a = space.allocate(100, "a", HostInit::none());
  const auto b = space.allocate(3 * kVaBlockSize, "b", HostInit::none());
  EXPECT_EQ(a.first_page, 0u);
  EXPECT_EQ(b.first_page, kPagesPerVaBlock);
  EXPECT_EQ(space.block_count(), 4u);
  EXPECT_EQ(space.allocations().size(), 2u);
}

TEST(VaSpace, SingleThreadInitMapsEverythingToOneSharer) {
  VaSpace space;
  space.allocate(kPageSize * 100, "a", HostInit::single());
  const auto& block = space.block(0);
  EXPECT_EQ(block.cpu_mapped_count(), 100u);
  EXPECT_EQ(block.cpu_sharers(), 0b1u);
}

TEST(VaSpace, NoneInitLeavesPagesUnpopulated) {
  VaSpace space;
  space.allocate(kPageSize * 100, "a", HostInit::none());
  const auto& block = space.block(0);
  EXPECT_EQ(block.cpu_mapped_count(), 0u);
  EXPECT_TRUE(block.populated().none());
}

TEST(VaSpace, InterleavedInitSpreadsSharersAcrossEveryBlock) {
  // Fig 11's trigger: boxed OpenMP init leaves every VABlock shared by
  // many CPU threads.
  VaSpace space;
  space.allocate(2 * kVaBlockSize, "a", HostInit::interleaved(32));
  EXPECT_EQ(sharer_count(space.block(0).cpu_sharers()), 32u);
  EXPECT_EQ(sharer_count(space.block(1).cpu_sharers()), 32u);
}

TEST(VaSpace, ChunkedInitLocalizesSharers) {
  // Static-schedule OpenMP: each VABlock touched by only ~1-2 threads.
  VaSpace space;
  space.allocate(8 * kVaBlockSize, "a", HostInit::chunked(8));
  for (VaBlockId b = 0; b < 8; ++b) {
    EXPECT_LE(sharer_count(space.block(b).cpu_sharers()), 2u) << b;
  }
}

TEST(VaSpace, UnmapBlockCpuClearsPtesAndMask) {
  VaSpace space;
  space.allocate(kVaBlockSize, "a", HostInit::single());
  EXPECT_EQ(space.block(0).cpu_mapped_count(), kPagesPerVaBlock);
  EXPECT_EQ(space.unmap_block_cpu(0), kPagesPerVaBlock);
  EXPECT_EQ(space.block(0).cpu_mapped_count(), 0u);
  // Idempotent.
  EXPECT_EQ(space.unmap_block_cpu(0), 0u);
}

TEST(VaSpace, ResidencyQueries) {
  VaSpace space;
  space.allocate(kVaBlockSize, "a", HostInit::none());
  EXPECT_FALSE(space.is_gpu_resident(0));
  space.block(0).set_gpu_resident(0);
  EXPECT_TRUE(space.is_gpu_resident(0));
  EXPECT_FALSE(space.is_gpu_resident(1));
  // Out-of-range pages are simply non-resident.
  EXPECT_FALSE(space.is_gpu_resident(100 * kPagesPerVaBlock));
  EXPECT_EQ(space.gpu_resident_pages(), 1u);
}

TEST(VaSpace, ResidencyLivesInOneWordStore) {
  // Every block's residency is one entry of the space's store: a write
  // through a block is the store's bit, and stays so after a later
  // allocation grows (and may move) the store.
  VaSpace space;
  space.allocate(2 * kVaBlockSize, "a", HostInit::none());
  space.block(1).set_gpu_resident(3);
  ASSERT_EQ(space.gpu_residency().size(), 2u);
  EXPECT_TRUE(space.gpu_residency()[1].test(3));
  EXPECT_EQ(&space.block(1).gpu_resident(), &space.gpu_residency()[1]);

  space.allocate(64 * kVaBlockSize, "b", HostInit::none());
  ASSERT_EQ(space.gpu_residency().size(), 66u);
  EXPECT_EQ(&space.block(1).gpu_resident(), &space.gpu_residency()[1]);
  EXPECT_TRUE(space.block(1).is_gpu_resident(3));
  EXPECT_TRUE(space.is_gpu_resident(kPagesPerVaBlock + 3));
  space.block(65).set_gpu_resident(kPagesPerVaBlock - 1);
  EXPECT_TRUE(space.is_gpu_resident(66 * kPagesPerVaBlock - 1));
  EXPECT_EQ(space.block(1).evict_to_host(), 1u);
  EXPECT_TRUE(space.gpu_residency()[1].none());
  EXPECT_EQ(space.gpu_resident_pages(), 1u);
}

TEST(VaSpace, HostPreferredAdviceIsRemembered) {
  VaSpace space;
  space.allocate(kVaBlockSize, "a", HostInit::none());
  EXPECT_FALSE(space.any_host_preferred());
  space.allocate(kVaBlockSize, "b", HostInit::none(),
                 MemAdvise::kPreferredLocationHost);
  EXPECT_TRUE(space.any_host_preferred());
  space.allocate(kVaBlockSize, "c", HostInit::none());
  EXPECT_TRUE(space.any_host_preferred());
}

class HostInitPatternTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HostInitPatternTest, InterleavedSharerCountMatchesThreads) {
  const std::uint32_t threads = GetParam();
  VaSpace space;
  space.allocate(kVaBlockSize, "a", HostInit::interleaved(threads));
  EXPECT_EQ(sharer_count(space.block(0).cpu_sharers()),
            std::min(threads, kPagesPerVaBlock));
}

INSTANTIATE_TEST_SUITE_P(Threads, HostInitPatternTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace uvmsim
