// Page -> parked-warp index of the fault-generation engine.
//
// A warp whose visit changed nothing is parked: the engine skips it until
// one of its unfinished pages enters its µTLB or becomes resident. To find
// those warps from a page, the engine links each unfinished access of a
// parked warp here as one node, numbered by the access's position in the
// engine's state arena. The nodes of one page form a doubly linked chain,
// so a node unlinks in O(1). The pages that have a chain sit in a dense
// array, which the engine sweeps once per window against the residency
// table, and an open-addressed index over that array (a power-of-two slot
// count of at least twice the pages, a multiplicative hash, linear probing
// and backward-shift deletion, as in UTlb) finds one page's chain when a
// µTLB takes that page.
//
// The owner sizes the node arrays once per kernel and frees them when the
// kernel ends; the page array and its index grow only while the count of
// parked pages reaches a new peak, so the steady state allocates nothing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

class ParkIndex {
 public:
  /// Room for nodes [0, count) and no page; reset(0) frees all storage.
  /// The node arrays are left uninitialized (link() writes a node before
  /// anything reads it), so a node's memory is touched only once its warp
  /// parks.
  void reset(std::size_t count) {
    prev_ = count ? std::make_unique_for_overwrite<std::uint32_t[]>(count)
                  : nullptr;
    next_ = count ? std::make_unique_for_overwrite<std::uint32_t[]>(count)
                  : nullptr;
    pages_ = std::vector<Page>();
    index_ = std::vector<std::uint32_t>();
  }

  void clear() {
    pages_.clear();
    std::ranges::fill(index_, 0u);
  }

  bool empty() const noexcept { return pages_.empty(); }

  /// Link `node` under `page`. Precondition: the node is not linked.
  void link(std::uint32_t node, PageId page) {
    if (2 * (pages_.size() + 1) > index_.size()) grow();
    const std::size_t s = slot_of(page);
    if (index_[s] == 0) {
      pages_.push_back({page, kNone});
      index_[s] = static_cast<std::uint32_t>(pages_.size());
    }
    const std::uint32_t p = index_[s] - 1;
    const std::uint32_t head = pages_[p].head;
    prev_[node] = p | kFirst;
    next_[node] = head;
    if (head != kNone) prev_[head] = node;
    pages_[p].head = node;
  }

  /// Unlink a linked node; a page whose chain empties leaves the index.
  void unlink(std::uint32_t node) {
    const std::uint32_t prev = prev_[node];
    const std::uint32_t next = next_[node];
    if (next != kNone) prev_[next] = prev;
    if ((prev & kFirst) == 0) {
      next_[prev] = next;
    } else if (next != kNone) {
      pages_[prev & ~kFirst].head = next;
    } else {
      erase(prev & ~kFirst);
    }
  }

  /// Call f(node) for every node linked under `page`.
  template <class F>
  void for_each_node(PageId page, F&& f) const {
    if (pages_.empty()) return;
    const std::uint32_t p = index_[slot_of(page)];
    if (p == 0) return;
    for (std::uint32_t n = pages_[p - 1].head; n != kNone; n = next_[n]) f(n);
  }

  /// Call f(node) for every node linked under a page that `pick` accepts.
  template <class Pick, class F>
  void for_each_node_if(Pick&& pick, F&& f) const {
    for (const Page& page : pages_) {
      if (!pick(page.page)) continue;
      for (std::uint32_t n = page.head; n != kNone; n = next_[n]) f(n);
    }
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  // prev_ of a chain's first node holds its page's position, tagged.
  static constexpr std::uint32_t kFirst = std::uint32_t{1} << 31;

  struct Page {
    PageId page;
    std::uint32_t head;  // first node of the chain
  };

  std::size_t home(PageId page) const noexcept {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// The index slot that holds `page`, or the empty slot it would take.
  std::size_t slot_of(PageId page) const noexcept {
    std::size_t s = home(page);
    while (index_[s] != 0 && pages_[index_[s] - 1].page != page) {
      s = (s + 1) & mask_;
    }
    return s;
  }

  void grow() {
    const std::size_t size = std::max<std::size_t>(64, 2 * index_.size());
    index_.assign(size, 0);
    mask_ = size - 1;
    shift_ = 64 - std::countr_zero(size);
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      std::size_t s = home(pages_[p].page);
      while (index_[s] != 0) s = (s + 1) & mask_;
      index_[s] = static_cast<std::uint32_t>(p + 1);
    }
  }

  /// Drop page position `p`, whose chain is empty: close its gap in the
  /// probe sequences, then move the last page into its position.
  void erase(std::uint32_t p) {
    std::size_t hole = slot_of(pages_[p].page);
    for (std::size_t s = (hole + 1) & mask_; index_[s] != 0;
         s = (s + 1) & mask_) {
      // The entry at s may fill the hole unless its home lies in (hole, s].
      const std::size_t home_s = home(pages_[index_[s] - 1].page);
      if (((s - home_s) & mask_) >= ((s - hole) & mask_)) {
        index_[hole] = index_[s];
        hole = s;
      }
    }
    index_[hole] = 0;
    const std::size_t last = pages_.size() - 1;
    if (p != last) {
      pages_[p] = pages_[last];
      index_[slot_of(pages_[p].page)] = p + 1;
      prev_[pages_[p].head] = p | kFirst;
    }
    pages_.pop_back();
  }

  std::vector<Page> pages_;
  std::vector<std::uint32_t> index_;  // pages_ position + 1; 0 = empty
  std::size_t mask_ = 0;              // index_.size() - 1
  int shift_ = 64;                    // 64 - log2(index_.size())
  std::unique_ptr<std::uint32_t[]> prev_;  // per node
  std::unique_ptr<std::uint32_t[]> next_;  // per node; kNone ends a chain
};

}  // namespace uvmsim
