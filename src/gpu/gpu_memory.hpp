// GPU physical memory: a 2 MB chunk allocator.
//
// UVM requests physical backing from the nvidia resource manager in 2 MB
// chunks aligned with VABlocks, and evicts at the same granularity (§2.2,
// §5.1). Allocation failure is the eviction trigger.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

class GpuMemory {
 public:
  explicit GpuMemory(std::uint64_t total_bytes);

  using ChunkId = std::uint32_t;

  /// Allocate one 2 MB chunk; nullopt when memory is exhausted (the caller
  /// must evict and retry).
  std::optional<ChunkId> alloc_chunk();

  bool free_chunk(ChunkId chunk);

  /// Page retirement (double-bit ECC): permanently blacklist an allocated
  /// chunk. It leaves the usable pool — capacity shrinks, it is never
  /// handed out again, and free_chunk on it fails. Returns false when the
  /// chunk is not currently allocated.
  bool retire_chunk(ChunkId chunk);

  bool is_retired(ChunkId chunk) const noexcept {
    return chunk < retired_.size() && retired_[chunk];
  }

  std::uint64_t total_chunks() const noexcept { return total_chunks_; }
  std::uint64_t chunks_in_use() const noexcept { return in_use_; }
  std::uint64_t free_chunks() const noexcept { return total_chunks_ - in_use_; }
  bool full() const noexcept { return in_use_ >= total_chunks_; }

  std::uint64_t retired_chunks() const noexcept { return retired_count_; }

 private:
  std::uint64_t total_chunks_;
  std::uint64_t in_use_ = 0;
  std::uint32_t next_never_used_ = 0;
  std::vector<ChunkId> free_list_;
  std::vector<bool> allocated_;
  std::vector<bool> retired_;
  std::uint64_t retired_count_ = 0;
};

}  // namespace uvmsim
