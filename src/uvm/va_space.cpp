#include "uvm/va_space.hpp"

#include <algorithm>
#include <utility>

namespace uvmsim {

PageId AllocLayout::add(std::uint64_t bytes) {
  const PageId base = next_page_;
  const std::uint64_t pages = ceil_div(bytes, kPageSize);
  const std::uint64_t blocks = ceil_div(pages, kPagesPerVaBlock);
  next_page_ += blocks * kPagesPerVaBlock;
  return base;
}

const AllocationInfo& VaSpace::allocate(std::uint64_t bytes, std::string name,
                                        HostInit init, MemAdvise advise) {
  AllocationInfo info;
  info.id = static_cast<AllocId>(allocations_.size());
  info.name = std::move(name);
  info.first_page = layout_.add(bytes);
  info.pages = ceil_div(bytes, kPageSize);
  info.init = init;
  info.advise = advise;

  residency_.resize(layout_.total_blocks());
  while (blocks_.size() < layout_.total_blocks()) {
    blocks_.emplace_back(residency_, blocks_.size());
  }
  block_alloc_.resize(layout_.total_blocks(), info.id);
  any_host_preferred_ |= advise == MemAdvise::kPreferredLocationHost;
  allocations_.push_back(info);
  apply_host_init(allocations_.back());
  return allocations_.back();
}

void VaSpace::apply_host_init(const AllocationInfo& alloc) {
  if (alloc.init.pattern == HostInit::Pattern::kNone) return;
  const std::uint32_t threads = std::max(1u, alloc.init.threads);

  for (std::uint64_t i = 0; i < alloc.pages; ++i) {
    const PageId page = alloc.first_page + i;
    std::uint32_t toucher = 0;
    switch (alloc.init.pattern) {
      case HostInit::Pattern::kSingleThread:
        toucher = 0;
        break;
      case HostInit::Pattern::kChunked:
        toucher = static_cast<std::uint32_t>(i * threads / alloc.pages);
        break;
      case HostInit::Pattern::kInterleaved:
        toucher = static_cast<std::uint32_t>(i % threads);
        break;
      case HostInit::Pattern::kNone:
        break;
    }
    block(va_block_of(page))
        .set_cpu_initialized(page_index_in_block(page),
                             CpuThreadMask{1} << (toucher % 64));
  }
}

MemAdvise VaSpace::advise_of(PageId page) const {
  const VaBlockId b = va_block_of(page);
  if (b >= block_alloc_.size()) return MemAdvise::kNone;
  const AllocationInfo& alloc = allocations_[block_alloc_[b]];
  // The last block's tail past the allocation belongs to no allocation.
  if (page >= alloc.first_page + alloc.pages) return MemAdvise::kNone;
  return alloc.advise;
}

std::uint64_t VaSpace::gpu_resident_pages() const {
  std::uint64_t n = 0;
  for (const PageMask& resident : residency_) n += resident.count();
  return n;
}

}  // namespace uvmsim
