#include "gpu/gpu_memory.hpp"

namespace uvmsim {

GpuMemory::GpuMemory(std::uint64_t total_bytes)
    : total_chunks_(total_bytes / kVaBlockSize),
      allocated_(total_chunks_, false),
      retired_(total_chunks_, false) {}

std::optional<GpuMemory::ChunkId> GpuMemory::alloc_chunk() {
  ChunkId chunk;
  if (!free_list_.empty()) {
    chunk = free_list_.back();
    free_list_.pop_back();
  } else if (next_never_used_ < allocated_.size()) {
    // Bump against the physical array, not total_chunks_: retirement
    // shrinks the usable count, and comparing against it would strand one
    // healthy never-used tail chunk per retired chunk.
    chunk = next_never_used_++;
  } else {
    return std::nullopt;
  }
  allocated_[chunk] = true;
  ++in_use_;
  return chunk;
}

bool GpuMemory::free_chunk(ChunkId chunk) {
  if (chunk >= allocated_.size() || !allocated_[chunk] || retired_[chunk]) {
    return false;
  }
  allocated_[chunk] = false;
  free_list_.push_back(chunk);
  --in_use_;
  return true;
}

bool GpuMemory::retire_chunk(ChunkId chunk) {
  if (chunk >= allocated_.size() || !allocated_[chunk] || retired_[chunk]) {
    return false;
  }
  // The chunk stays marked allocated (never re-enters the free list) but
  // leaves the usable pool entirely: both in_use_ and total_chunks_ drop
  // so full()/free_chunks() keep describing the healthy capacity.
  retired_[chunk] = true;
  --in_use_;
  --total_chunks_;
  ++retired_count_;
  return true;
}

}  // namespace uvmsim
