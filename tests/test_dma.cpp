#include "hostos/dma.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(DmaMapper, MapsRangeOnce) {
  DmaMapper dma;
  const auto r = dma.map_range(0, 512);
  EXPECT_EQ(r.pages_mapped, 512u);
  EXPECT_GT(r.cost_ns, 0u);
  EXPECT_EQ(dma.mapped_pages(), 512u);
  for (PageId p = 0; p < 512; ++p) EXPECT_TRUE(dma.is_mapped(p));
  EXPECT_FALSE(dma.is_mapped(512));
}

TEST(DmaMapper, RemapIsFree) {
  DmaMapper dma;
  dma.map_range(0, 64);
  const auto again = dma.map_range(0, 64);
  EXPECT_EQ(again.pages_mapped, 0u);
  EXPECT_EQ(again.cost_ns, 0u);
  EXPECT_EQ(dma.mapped_pages(), 64u);
}

TEST(DmaMapper, PartialOverlapMapsOnlyNewPages) {
  DmaMapper dma;
  dma.map_range(0, 32);
  const auto r = dma.map_range(16, 32);  // 16 already mapped, 16 new
  EXPECT_EQ(r.pages_mapped, 16u);
  EXPECT_EQ(dma.mapped_pages(), 48u);
}

TEST(DmaMapper, CostScalesWithPages) {
  DmaCostModel model;
  DmaMapper small(model);
  DmaMapper large(model);
  const auto a = small.map_range(0, 16);
  const auto b = large.map_range(0, 512);
  EXPECT_GT(b.cost_ns, a.cost_ns);
  // At least the per-page floor.
  EXPECT_GE(b.cost_ns, 512u * model.per_page_map_ns);
}

TEST(DmaMapper, RadixGrowthFlaggedOnFarKeys) {
  DmaMapper dma;
  dma.map_range(0, 1);
  const auto far = dma.map_range(1ULL << 40, 1);
  EXPECT_TRUE(far.radix_grew);
  EXPECT_GT(far.radix_nodes_allocated, 1u);
}

TEST(DmaMapper, FirstBlockAllocatesMoreRadixNodesThanSecond) {
  // The intermittent high-cost first-touch batches (Fig 14): mapping the
  // first VABlock grows the tree; the neighbouring block mostly reuses
  // interior nodes.
  DmaMapper dma;
  const auto first = dma.map_range(0, kPagesPerVaBlock);
  const auto second = dma.map_range(kPagesPerVaBlock, kPagesPerVaBlock);
  EXPECT_GT(first.radix_nodes_allocated, 0u);
  EXPECT_LE(second.radix_nodes_allocated, first.radix_nodes_allocated);
}

}  // namespace
}  // namespace uvmsim
