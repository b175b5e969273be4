// DMA mapping service: forward per-page IOMMU mappings plus the reverse-map
// radix tree the UVM driver maintains, keyed by page.
//
// Section 5.2: the first time a VABlock is touched, the driver (1) creates
// DMA mappings for every page so the GPU copy engines can reach host
// memory, and (2) inserts reverse mappings into a mainline-kernel radix
// tree. The inline timing in the paper attributes most of the spike to the
// radix-tree portion. We charge per-page IOMMU work plus per-inserted-node
// radix work, so tree growth produces exactly the intermittent outliers
// the paper observed.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "hostos/radix_tree.hpp"

namespace uvmsim {

struct DmaCostModel {
  SimTime per_page_map_ns = 300;     // IOMMU/PTE + dma_map_page bookkeeping
  SimTime per_radix_insert_ns = 100; // slot write on the hot path
  SimTime per_radix_node_ns = 800;   // node allocation (growth spikes)
};

class DmaMapper {
 public:
  explicit DmaMapper(DmaCostModel model = {}) : model_(model) {}

  struct MapResult {
    SimTime cost_ns = 0;
    std::uint32_t pages_mapped = 0;      // excludes already-mapped pages
    std::uint32_t radix_nodes_allocated = 0;
    bool radix_grew = false;
  };

  /// Map `count` contiguous pages starting at `first` for device access.
  /// Already-mapped pages are skipped at no cost (the driver checks the
  /// block's mapping state before calling in).
  MapResult map_range(PageId first, std::uint32_t count);

  bool is_mapped(PageId page) const { return reverse_.contains(page); }

  // Whole-life books. Nothing is ever unmapped, so the mapped pages and
  // the tree's nodes are also the totals map_range() added.
  std::uint64_t mapped_pages() const noexcept { return reverse_.size(); }
  std::uint64_t radix_nodes() const noexcept { return reverse_.node_count(); }
  std::uint64_t map_calls() const noexcept { return map_calls_; }
  /// map_range() calls whose inserts grew the tree's height.
  std::uint64_t radix_height_growths() const noexcept { return growths_; }

 private:
  DmaCostModel model_;
  RadixTree reverse_;
  std::uint64_t map_calls_ = 0;
  std::uint64_t growths_ = 0;
};

}  // namespace uvmsim
