// Managed virtual address space: cudaMallocManaged-style allocations.
//
// Allocations are VABlock-aligned (real UVM splits every managed range
// into 2 MB logical VABlocks, §2.2). Host initialization patterns record
// which CPU threads touched which pages in each block's CPU masks, the
// host's only mapping state and the input to the unmap/TLB-shootdown cost
// model (Fig 11).
//
// The VA space owns GPU residency. It keeps one contiguous PageMask per
// VABlock, indexed by VaBlockId, so page p is bit p % 64 of word p / 64
// across the store. That store is the only copy: VaBlockState reads and
// writes its own entry in place, and the GPU engine tests the words
// directly (UvmDriver::residency_table()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "uvm/va_block.hpp"

namespace uvmsim {

/// How the host application initializes an allocation before kernel launch.
struct HostInit {
  enum class Pattern : std::uint8_t {
    kNone,         // never touched by CPU: GPU first-touch zero-populates
    kSingleThread, // one thread writes everything (memset/for-loop)
    kChunked,      // OpenMP static schedule: thread t owns a contiguous slab
    kInterleaved,  // OpenMP fine-grained/boxed: threads interleave per page
  };
  Pattern pattern = Pattern::kSingleThread;
  std::uint32_t threads = 1;

  static HostInit none() { return {Pattern::kNone, 0}; }
  static HostInit single() { return {Pattern::kSingleThread, 1}; }
  static HostInit chunked(std::uint32_t t) { return {Pattern::kChunked, t}; }
  static HostInit interleaved(std::uint32_t t) {
    return {Pattern::kInterleaved, t};
  }
};

/// cudaMemAdvise-style placement advice per allocation.
enum class MemAdvise : std::uint8_t {
  kNone,                   // demand paging with migration (default)
  kPreferredLocationHost,  // pin to host; GPU accesses resolve remotely
                           // over DMA mappings (the EMOGI-style pattern
                           // the paper's related work applies to graphs)
};

struct AllocationInfo {
  AllocId id = 0;
  std::string name;
  PageId first_page = 0;
  std::uint64_t pages = 0;
  HostInit init;
  MemAdvise advise = MemAdvise::kNone;
};

/// Deterministic VABlock-aligned layout shared by workload builders and
/// the VA space: allocation i starts at the next free VABlock boundary.
class AllocLayout {
 public:
  /// Reserve `bytes` and return the first page of the new allocation.
  PageId add(std::uint64_t bytes);

  PageId next_free_page() const noexcept { return next_page_; }
  std::uint64_t total_blocks() const noexcept {
    return next_page_ / kPagesPerVaBlock;
  }

 private:
  PageId next_page_ = 0;
};

class VaSpace {
 public:
  VaSpace() = default;
  // Every block points at residency_, so the space stays where it is built.
  VaSpace(const VaSpace&) = delete;
  VaSpace& operator=(const VaSpace&) = delete;

  /// Allocate `bytes` of managed memory and apply the host-init pattern.
  /// Returns the allocation record (placement matches AllocLayout).
  const AllocationInfo& allocate(std::uint64_t bytes, std::string name,
                                 HostInit init,
                                 MemAdvise advise = MemAdvise::kNone);

  /// Placement advice for the allocation containing `page` (kNone for
  /// unmapped pages). O(1): allocations are VABlock-aligned, so each
  /// block belongs to exactly one.
  MemAdvise advise_of(PageId page) const;

  VaBlockState& block(VaBlockId id) { return blocks_.at(id); }
  const VaBlockState& block(VaBlockId id) const { return blocks_.at(id); }
  bool has_block(VaBlockId id) const noexcept { return id < blocks_.size(); }
  std::uint64_t block_count() const noexcept { return blocks_.size(); }

  /// The residency store: one mask per VABlock, indexed by VaBlockId.
  /// `managed_alloc` may reallocate it, so callers re-read it after one.
  const std::vector<PageMask>& gpu_residency() const noexcept {
    return residency_;
  }

  bool is_gpu_resident(PageId page) const {
    const VaBlockId b = va_block_of(page);
    return b < residency_.size() &&
           residency_[b].test(page_index_in_block(page));
  }

  /// Multi-GPU form of is_gpu_resident: the page is resident AND its
  /// block's chunk lives in GPU `gpu`'s HBM (a peer-owned resident page
  /// is remote-mapped or a fault for `gpu`, never local).
  bool is_gpu_resident_on(std::uint32_t gpu, PageId page) const {
    const VaBlockId b = va_block_of(page);
    return is_gpu_resident(page) && blocks_[b].owner_gpu() == gpu;
  }

  /// Some allocation is advised kPreferredLocationHost, so some
  /// non-resident page may resolve remotely rather than fault.
  bool any_host_preferred() const noexcept { return any_host_preferred_; }

  /// Retired pages resolve remotely forever (recovery tier 2). The flag
  /// keeps the classify fast path a single branch until the first
  /// retirement actually happens.
  bool any_retired() const noexcept { return any_retired_; }
  void note_page_retired() noexcept { any_retired_ = true; }
  bool is_page_retired(PageId page) const {
    const VaBlockId b = va_block_of(page);
    return b < blocks_.size() &&
           blocks_[b].is_retired(page_index_in_block(page));
  }

  const std::vector<AllocationInfo>& allocations() const noexcept {
    return allocations_;
  }
  std::uint64_t total_pages() const noexcept { return layout_.next_free_page(); }

  /// Aggregate GPU-resident pages across all blocks (invariant checks).
  std::uint64_t gpu_resident_pages() const;

  /// unmap_mapping_range() effect on one VABlock: clear the block's
  /// CPU-mapped mask. Returns the number of pages unmapped.
  std::uint32_t unmap_block_cpu(VaBlockId id) {
    return block(id).unmap_cpu_pages();
  }

 private:
  void apply_host_init(const AllocationInfo& alloc);

  AllocLayout layout_;
  std::vector<AllocationInfo> allocations_;
  std::vector<PageMask> residency_;  // GPU residency, one mask per block
  std::vector<VaBlockState> blocks_;
  std::vector<AllocId> block_alloc_;  // owning allocation of each block
  bool any_retired_ = false;
  bool any_host_preferred_ = false;
};

}  // namespace uvmsim
