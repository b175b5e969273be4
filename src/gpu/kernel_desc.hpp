// Page-granular kernel IR: what a CUDA kernel looks like to the UVM system.
//
// The UVM driver never sees instructions — only the page-access footprint
// each warp generates, shaped by coalescing (one request per distinct page
// per warp) and scoreboard ordering (SIMT pipelines stall in order at the
// first use of a pending register, so a warp's accesses execute as ordered
// *groups*: all loads up to a stall issue together, then the warp blocks
// until they complete — Listing 2 in the paper). Workload generators in
// src/workloads compile each benchmark to this IR through KernelBuilder.
//
// Format. A kernel is one flat, CSR-style program of four arrays:
//   * one 32-bit word per page access: the page id relative to the
//     workload's first page in the low 30 bits, the AccessType in the top
//     two;
//   * per group, the end offset of its accesses and its compute time;
//   * per warp, the end offset of its groups;
//   * per block, the end offset of its warps.
// Each offset array starts with a 0, so item i of a level spans
// [bound[i], bound[i + 1]) of the level below. A kernel of n accesses in
// k groups therefore holds about 4n + 8k bytes in four heap arrays.
//
// Packing limit: relative page ids below 2^30 (4 TiB of 4 KiB pages), at
// most 2^32 - 1 accesses, groups and warps per kernel, and compute times
// below 2^32 ns per group. KernelBuilder throws std::invalid_argument
// beyond them. Only this header knows the encoding.
//
// There is no nested form beside this one and no converter to it: the
// engine, the explicit-copy baseline and the tests all read through the
// accessors. A nested copy, even a transient one, would hold 16 bytes and
// a share of a heap allocation per access — the cost this format removes.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

/// One decoded page access.
struct PageAccess {
  PageId page = 0;
  AccessType type = AccessType::kRead;

  bool operator==(const PageAccess&) const = default;
};

/// Half-open index range [first, last) into the next level down.
struct IndexRange {
  std::uint32_t first = 0;
  std::uint32_t last = 0;

  std::uint32_t size() const noexcept { return last - first; }
  bool empty() const noexcept { return first == last; }

  struct iterator {
    std::uint32_t i = 0;
    std::uint32_t operator*() const noexcept { return i; }
    iterator& operator++() noexcept {
      ++i;
      return *this;
    }
    bool operator==(const iterator&) const = default;
  };
  iterator begin() const noexcept { return {first}; }
  iterator end() const noexcept { return {last}; }
};

/// A grid launch. Blocks are scheduled onto SMs by the engine as resident
/// blocks retire, producing the moving access frontier real kernels show.
/// Warps, groups and accesses are numbered kernel-wide, in program order.
class KernelDesc {
 public:
  /// Relative page ids must stay below this bound.
  static constexpr PageId kMaxPages = PageId{1} << 30;

  const std::string& name() const noexcept { return name_; }

  std::uint32_t num_blocks() const noexcept { return count(block_bound_); }
  std::uint32_t num_warps() const noexcept { return count(warp_bound_); }
  std::uint32_t num_groups() const noexcept { return count(group_bound_); }
  std::uint64_t total_accesses() const noexcept { return access_.size(); }
  /// Warps in the largest block, and accesses in the largest group.
  std::uint32_t max_block_size() const noexcept { return max_block_size_; }
  std::uint32_t max_group_size() const noexcept { return max_group_size_; }

  IndexRange warps_of(std::uint32_t block) const noexcept {
    return {block_bound_[block], block_bound_[block + 1]};
  }
  IndexRange groups_of(std::uint32_t warp) const noexcept {
    return {warp_bound_[warp], warp_bound_[warp + 1]};
  }
  IndexRange accesses_of(std::uint32_t group) const noexcept {
    return {group_bound_[group], group_bound_[group + 1]};
  }

  /// Arithmetic a warp performs once the group's data is available.
  SimTime compute_ns(std::uint32_t group) const noexcept {
    return compute_ns_[group];
  }

  PageAccess access(std::uint32_t i) const noexcept {
    const std::uint32_t word = access_[i];
    return {word & kPageMask, static_cast<AccessType>(word >> kTypeShift)};
  }

  /// Heap bytes the program holds, counted by the capacity of its arrays.
  std::uint64_t heap_bytes() const noexcept;

 private:
  friend class KernelBuilder;

  static constexpr unsigned kTypeShift = 30;
  static constexpr std::uint32_t kPageMask = (1u << kTypeShift) - 1;

  static std::uint32_t pack(PageId page, AccessType type) noexcept {
    return static_cast<std::uint32_t>(page) |
           (static_cast<std::uint32_t>(type) << kTypeShift);
  }
  static std::uint32_t count(const std::vector<std::uint32_t>& bound) {
    return static_cast<std::uint32_t>(bound.size() - 1);
  }

  std::string name_;
  std::vector<std::uint32_t> access_;
  std::vector<std::uint32_t> group_bound_{0};
  std::vector<std::uint32_t> compute_ns_;
  std::vector<std::uint32_t> warp_bound_{0};
  std::vector<std::uint32_t> block_bound_{0};
  std::uint32_t max_block_size_ = 0;
  std::uint32_t max_group_size_ = 0;
};

/// Writes a KernelDesc in program order: accesses into the open group,
/// end_group() closes it, end_warp() closes the warp's group list, and
/// end_block() the block's warp list.
///
/// The builder coalesces like the hardware: a page already in the open
/// group is not appended again, and a write to a page the group reads
/// upgrades that access to a write; the first occurrence keeps its place.
/// A table indexed by page, holding each page's latest position, makes
/// this O(1) per page.
class KernelBuilder {
 public:
  /// `page_count` bounds the relative page ids the kernel may touch (the
  /// end of the workload's allocation layout) and sizes the dedup table.
  KernelBuilder(std::string name, std::uint64_t page_count);

  /// Reserve exact array sizes, for builders whose shape has a closed
  /// form; the others grow.
  void reserve(std::uint64_t blocks, std::uint64_t warps,
               std::uint64_t groups, std::uint64_t accesses);

  /// Append an access to `page` unless the open group already has it.
  void add_page(PageId page, AccessType type) {
    check_page(page);
    append(page, type);
  }

  /// Append the pages covering bytes [offset, offset + len) of an
  /// allocation that starts at `base_page`, as add_page does.
  void add_span(PageId base_page, std::uint64_t offset, std::uint64_t len,
                AccessType type) {
    if (len == 0) return;
    const PageId first = base_page + offset / kPageSize;
    const PageId last = base_page + (offset + len - 1) / kPageSize;
    check_page(last);
    for (PageId p = first; p <= last; ++p) append(p, type);
  }

  /// Close the open group: a scoreboard barrier, then `compute_ns` of
  /// arithmetic. An empty group is legal and charges only its compute.
  void end_group(SimTime compute_ns);

  /// Close the open warp after its last group.
  void end_warp();

  /// Close the open block after its last warp. A block without warps is
  /// dropped: it would only hold an SM slot for no work.
  void end_block();

  /// The finished program; the builder is left empty.
  KernelDesc finish();

 private:
  static constexpr std::uint32_t kNoPos =
      std::numeric_limits<std::uint32_t>::max();

  void check_page(PageId page) const {
    if (page >= last_pos_.size()) reject_page(page);
  }
  [[noreturn]] void reject_page(PageId page) const;

  void append(PageId page, AccessType type) {
    std::vector<std::uint32_t>& words = kernel_.access_;
    const std::uint32_t pos = last_pos_[page];
    if (pos != kNoPos && pos >= group_first_) {
      if (type == AccessType::kWrite &&
          kernel_.access(pos).type == AccessType::kRead) {
        words[pos] = KernelDesc::pack(page, AccessType::kWrite);
      }
      return;
    }
    last_pos_[page] = static_cast<std::uint32_t>(words.size());
    words.push_back(KernelDesc::pack(page, type));
  }

  KernelDesc kernel_;
  std::uint32_t group_first_ = 0;  // first access of the open group
  // Index into kernel_.access_ of each page's latest access, or kNoPos.
  // The page is in the open group iff that index is not below
  // group_first_.
  std::vector<std::uint32_t> last_pos_;
};

}  // namespace uvmsim
