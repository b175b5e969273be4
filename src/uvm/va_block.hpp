// Per-VABlock state: the driver's 2 MB bookkeeping unit (Section 2.2).
//
// Every memory-management decision in UVM is scoped to one VABlock: fault
// grouping, migration, DMA-map creation, CPU unmapping, and eviction. The
// state distinguishes
//   * `gpu_resident`  — page lives in the block's GPU chunk. This mask is
//     not stored here: the owning VaSpace keeps every block's residency in
//     one word store (VaSpace::gpu_residency()) that the GPU engine reads
//     in place, and the block reads and writes its entry there;
//   * `cpu_mapped`    — host PTE exists (unmap_mapping_range clears it);
//   * `host_data`     — a host frame holds valid data for the page (stays
//     true after unmapping until migration, and becomes true again after
//     eviction — without remapping, which is why a re-page-in skips the
//     unmap cost and produces Fig 13's lower cost levels);
//   * `populated`     — the page has ever been given defined contents
//     (zero-fill population or CPU initialization).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "gpu/gpu_memory.hpp"
#include "hostos/unmap.hpp"
#include "common/page_mask.hpp"

namespace uvmsim {

class VaBlockState {
 public:
  using PageMask = uvmsim::PageMask;

  /// Block `id` of the VA space whose residency store is `residency`.
  /// Only VaSpace builds blocks; the store must outlive the block.
  VaBlockState(std::vector<PageMask>& residency, VaBlockId id) noexcept
      : residency_(&residency), id_(id) {}
  // A copy would share the original's residency but not its other masks.
  VaBlockState(const VaBlockState&) = delete;
  VaBlockState& operator=(const VaBlockState&) = delete;
  VaBlockState(VaBlockState&&) noexcept = default;
  VaBlockState& operator=(VaBlockState&&) noexcept = default;

  // -- Residency masks ----------------------------------------------------
  const PageMask& gpu_resident() const noexcept { return (*residency_)[id_]; }
  const PageMask& host_data() const noexcept { return host_data_; }
  const PageMask& populated() const noexcept { return populated_; }
  const PageMask& retired() const noexcept { return retired_; }

  bool is_gpu_resident(std::uint32_t page) const {
    return gpu_resident()[page];
  }
  bool is_retired(std::uint32_t page) const { return retired_[page]; }

  void set_cpu_initialized(std::uint32_t page, CpuThreadMask toucher) {
    cpu_mapped_.set(page);
    host_data_.set(page);
    populated_.set(page);
    cpu_sharers_ |= toucher;
  }

  void set_gpu_resident(std::uint32_t page) {
    resident().set(page);
    populated_.set(page);
    host_data_.reset(page);  // GPU copy is now the authoritative one
  }

  /// Mask form of set_gpu_resident(page), for every page in `pages`.
  void set_gpu_resident(const PageMask& pages) {
    resident() |= pages;
    populated_ |= pages;
    host_data_ &= ~pages;
  }

  /// unmap_mapping_range() effect: host PTEs gone, data still in frames.
  std::uint32_t unmap_cpu_pages() {
    const auto n = static_cast<std::uint32_t>(cpu_mapped_.count());
    cpu_mapped_.reset();
    return n;
  }

  /// Page retirement (recovery tier 2): the page is permanently banned
  /// from GPU residency and its authoritative copy lives in a host frame.
  /// Populated pages keep/regain host_data so no defined contents are
  /// orphaned; unpopulated pages just carry the ban.
  void retire_page(std::uint32_t page) {
    resident().reset(page);
    if (populated_[page]) host_data_.set(page);
    retired_.set(page);
  }

  /// Retire every page of the block (double-bit ECC on the chunk).
  /// Returns how many pages were newly retired.
  std::uint32_t retire_all_pages() {
    const auto before = static_cast<std::uint32_t>(retired_.count());
    resident().reset();
    host_data_ |= populated_;
    retired_.set();
    return kPagesPerVaBlock - before;
  }

  std::uint32_t retired_count() const noexcept {
    return static_cast<std::uint32_t>(retired_.count());
  }

  /// Eviction effect: all GPU-resident pages move to host frames but are
  /// NOT remapped into the CPU page table (lazy remap on CPU access).
  std::uint32_t evict_to_host() {
    PageMask& resident = this->resident();
    const auto moved = static_cast<std::uint32_t>(resident.count());
    host_data_ |= resident;
    resident.reset();
    chunk_.reset();
    owner_gpu_ = 0;
    peer_map_mask_ = 0;
    peer_pages_.reset();
    return moved;
  }

  // -- Multi-GPU placement ---------------------------------------------------
  // Which GPU's HBM holds the block's chunk (chunk ids are scoped to the
  // owner's GpuMemory), and which other GPUs hold remote page-table
  // mappings into it over the fabric. With one GPU, owner and last GPU
  // stay 0 and the peer mask stays empty.
  std::uint32_t owner_gpu() const noexcept { return owner_gpu_; }
  void set_owner_gpu(std::uint32_t gpu) noexcept { owner_gpu_ = gpu; }
  bool peer_mapped(std::uint32_t gpu) const noexcept {
    return (peer_map_mask_ >> gpu) & 1u;
  }
  void add_peer_map(std::uint32_t gpu) noexcept {
    peer_map_mask_ |= 1ull << gpu;
  }
  void clear_peer_maps() noexcept {
    peer_map_mask_ = 0;
    peer_pages_.reset();
  }
  std::uint64_t peer_map_mask() const noexcept { return peer_map_mask_; }

  /// Remote mappings are page-granular: only pages in this mask resolve
  /// over the fabric for a peer-mapped GPU; the rest still fault, so a
  /// dense accessor keeps building fault pressure and crosses the
  /// peer-migrate threshold instead of being frozen behind a block-wide
  /// mapping made on its first sparse batch.
  const PageMask& peer_pages() const noexcept { return peer_pages_; }
  void add_peer_pages(const PageMask& pages) noexcept {
    peer_pages_ |= pages;
  }

  /// Last GPU whose faults this block serviced — the access-counter
  /// promotion pass uses it as the best-placed target hint.
  std::uint32_t last_gpu() const noexcept { return last_gpu_; }
  void set_last_gpu(std::uint32_t gpu) noexcept { last_gpu_ = gpu; }

  // -- GPU backing chunk ---------------------------------------------------
  std::optional<GpuMemory::ChunkId> chunk() const noexcept { return chunk_; }
  void set_chunk(GpuMemory::ChunkId chunk) noexcept { chunk_ = chunk; }
  bool has_chunk() const noexcept { return chunk_.has_value(); }

  // -- First-touch / DMA state ----------------------------------------------
  bool dma_mapped() const noexcept { return dma_mapped_; }
  void set_dma_mapped() noexcept { dma_mapped_ = true; }
  bool ever_on_gpu() const noexcept { return ever_on_gpu_; }
  void set_ever_on_gpu() noexcept { ever_on_gpu_ = true; }

  // -- Host-thread sharing (drives the unmap/IPI cost, Fig 11) -------------
  CpuThreadMask cpu_sharers() const noexcept { return cpu_sharers_; }

  std::uint32_t gpu_resident_count() const noexcept {
    return static_cast<std::uint32_t>(gpu_resident().count());
  }
  std::uint32_t cpu_mapped_count() const noexcept {
    return static_cast<std::uint32_t>(cpu_mapped_.count());
  }

 private:
  PageMask& resident() noexcept { return (*residency_)[id_]; }

  std::vector<PageMask>* residency_;  // the owning VaSpace's store
  VaBlockId id_;
  PageMask cpu_mapped_;
  PageMask host_data_;
  PageMask populated_;
  PageMask retired_;
  CpuThreadMask cpu_sharers_ = 0;
  std::optional<GpuMemory::ChunkId> chunk_;
  std::uint32_t owner_gpu_ = 0;
  std::uint32_t last_gpu_ = 0;
  std::uint64_t peer_map_mask_ = 0;  // bit g: GPU g remote-maps the block
  PageMask peer_pages_;              // pages with remote PTEs on peers
  bool dma_mapped_ = false;
  bool ever_on_gpu_ = false;
};

}  // namespace uvmsim
