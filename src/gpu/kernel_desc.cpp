#include "gpu/kernel_desc.hpp"

#include <algorithm>
#include <stdexcept>

namespace uvmsim {
namespace {

/// An offset that fits the program's 32-bit offset arrays.
std::uint32_t to_offset(std::size_t n, const char* what) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        std::string("KernelBuilder: more than 2^32 - 1 ") + what +
        " in one kernel");
  }
  return static_cast<std::uint32_t>(n);
}

template <typename T>
std::uint64_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::uint64_t KernelDesc::heap_bytes() const noexcept {
  return capacity_bytes(access_) + capacity_bytes(group_bound_) +
         capacity_bytes(compute_ns_) + capacity_bytes(warp_bound_) +
         capacity_bytes(block_bound_);
}

KernelBuilder::KernelBuilder(std::string name, std::uint64_t page_count) {
  if (page_count > KernelDesc::kMaxPages) {
    throw std::invalid_argument(
        "KernelBuilder: " + std::to_string(page_count) +
        " pages exceed the packed page range of 2^30");
  }
  kernel_.name_ = std::move(name);
  last_pos_.assign(page_count, kNoPos);
}

void KernelBuilder::reserve(std::uint64_t blocks, std::uint64_t warps,
                            std::uint64_t groups, std::uint64_t accesses) {
  kernel_.block_bound_.reserve(blocks + 1);
  kernel_.warp_bound_.reserve(warps + 1);
  kernel_.group_bound_.reserve(groups + 1);
  kernel_.compute_ns_.reserve(groups);
  kernel_.access_.reserve(accesses);
}

void KernelBuilder::reject_page(PageId page) const {
  throw std::invalid_argument(
      "KernelBuilder: page " + std::to_string(page) + " is outside the " +
      std::to_string(last_pos_.size()) + "-page range of the kernel");
}

void KernelBuilder::end_group(SimTime compute_ns) {
  if (compute_ns > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "KernelBuilder: group compute time of " + std::to_string(compute_ns) +
        " ns exceeds the packed range of 2^32 - 1 ns");
  }
  const std::uint32_t end = to_offset(kernel_.access_.size(), "accesses");
  kernel_.max_group_size_ =
      std::max(kernel_.max_group_size_, end - group_first_);
  group_first_ = end;
  kernel_.group_bound_.push_back(group_first_);
  kernel_.compute_ns_.push_back(static_cast<std::uint32_t>(compute_ns));
}

void KernelBuilder::end_warp() {
  if (kernel_.access_.size() != group_first_) {
    throw std::logic_error("KernelBuilder: end_warp with an open group");
  }
  kernel_.warp_bound_.push_back(
      to_offset(kernel_.group_bound_.size() - 1, "groups"));
}

void KernelBuilder::end_block() {
  if (kernel_.group_bound_.size() - 1 != kernel_.warp_bound_.back()) {
    throw std::logic_error("KernelBuilder: end_block with an open warp");
  }
  const std::uint32_t warps =
      to_offset(kernel_.warp_bound_.size() - 1, "warps");
  if (warps != kernel_.block_bound_.back()) {
    kernel_.max_block_size_ =
        std::max(kernel_.max_block_size_, warps - kernel_.block_bound_.back());
    kernel_.block_bound_.push_back(warps);
  }
}

KernelDesc KernelBuilder::finish() {
  if (kernel_.access_.size() != group_first_ ||
      kernel_.num_groups() != kernel_.warp_bound_.back() ||
      kernel_.num_warps() != kernel_.block_bound_.back()) {
    throw std::logic_error(
        "KernelBuilder: finish with an open group, warp or block");
  }
  KernelDesc out = std::move(kernel_);
  kernel_ = KernelDesc();
  group_first_ = 0;
  last_pos_.clear();
  return out;
}

}  // namespace uvmsim
