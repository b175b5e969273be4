#include "uvm/va_block.hpp"

#include <gtest/gtest.h>

#include "uvm/va_space.hpp"

namespace uvmsim {
namespace {

/// Block 0 of `space` after one untouched one-block allocation. A block
/// keeps its residency in its VA space's word store, so it is always
/// built by one.
VaBlockState& fresh_block(VaSpace& space) {
  space.allocate(kVaBlockSize, "block", HostInit::none());
  return space.block(0);
}

TEST(VaBlockState, StartsEmpty) {
  VaSpace space;
  VaBlockState& block = fresh_block(space);
  EXPECT_EQ(block.gpu_resident_count(), 0u);
  EXPECT_EQ(block.cpu_mapped_count(), 0u);
  EXPECT_FALSE(block.has_chunk());
  EXPECT_FALSE(block.dma_mapped());
  EXPECT_FALSE(block.ever_on_gpu());
  EXPECT_EQ(block.cpu_sharers(), 0u);
}

TEST(VaBlockState, CpuInitSetsMappedDataAndSharers) {
  VaSpace space;
  VaBlockState& block = fresh_block(space);
  block.set_cpu_initialized(3, 0b1);
  block.set_cpu_initialized(4, 0b100);
  EXPECT_EQ(block.cpu_mapped_count(), 2u);
  EXPECT_TRUE(block.host_data()[3]);
  EXPECT_TRUE(block.populated()[4]);
  EXPECT_EQ(block.cpu_sharers(), 0b101u);
}

TEST(VaBlockState, UnmapClearsPtesButKeepsData) {
  // The §4.4 distinction: unmap_mapping_range removes host mappings, but
  // the frames still hold the data until migration.
  VaSpace space;
  VaBlockState& block = fresh_block(space);
  block.set_cpu_initialized(0, 0b1);
  block.set_cpu_initialized(1, 0b1);
  EXPECT_EQ(block.unmap_cpu_pages(), 2u);
  EXPECT_EQ(block.cpu_mapped_count(), 0u);
  EXPECT_TRUE(block.host_data()[0]);
  EXPECT_TRUE(block.host_data()[1]);
}

TEST(VaBlockState, GpuResidencyInvalidatesHostCopy) {
  VaSpace space;
  VaBlockState& block = fresh_block(space);
  block.set_cpu_initialized(5, 0b1);
  block.unmap_cpu_pages();
  block.set_gpu_resident(5);
  EXPECT_TRUE(block.is_gpu_resident(5));
  EXPECT_FALSE(block.host_data()[5]);
  EXPECT_TRUE(block.populated()[5]);
}

TEST(VaBlockState, EvictMovesAllResidentPagesToHostWithoutRemap) {
  // Fig 13's lower cost level: evicted data returns to host frames but is
  // NOT remapped into the CPU page table.
  VaSpace space;
  VaBlockState& block = fresh_block(space);
  block.set_gpu_resident(1);
  block.set_gpu_resident(2);
  block.set_chunk(9);
  EXPECT_EQ(block.evict_to_host(), 2u);
  EXPECT_EQ(block.gpu_resident_count(), 0u);
  EXPECT_FALSE(block.has_chunk());
  EXPECT_TRUE(block.host_data()[1]);
  EXPECT_TRUE(block.host_data()[2]);
  EXPECT_EQ(block.cpu_mapped_count(), 0u);  // the key property
}

TEST(VaBlockState, EvictOnEmptyBlockMovesNothing) {
  VaSpace space;
  VaBlockState& block = fresh_block(space);
  EXPECT_EQ(block.evict_to_host(), 0u);
}

TEST(VaBlockState, ChunkLifecycle) {
  VaSpace space;
  VaBlockState& block = fresh_block(space);
  block.set_chunk(5);
  ASSERT_TRUE(block.has_chunk());
  EXPECT_EQ(*block.chunk(), 5u);
  block.evict_to_host();
  EXPECT_FALSE(block.has_chunk());
}

TEST(VaBlockState, FirstTouchFlagsAreSticky) {
  VaSpace space;
  VaBlockState& block = fresh_block(space);
  block.set_dma_mapped();
  block.set_ever_on_gpu();
  block.evict_to_host();
  EXPECT_TRUE(block.dma_mapped());
  EXPECT_TRUE(block.ever_on_gpu());
}

}  // namespace
}  // namespace uvmsim
