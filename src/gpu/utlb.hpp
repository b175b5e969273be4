// µTLB model: per-SM-pair translation lookaside buffer that tracks
// outstanding (un-serviced) page faults.
//
// Section 3.2 establishes the governing constraint: at most 56 outstanding
// faults per µTLB on Volta. A warp whose access misses an already-
// outstanding entry joins it (possibly emitting a duplicate fault record);
// a miss on a new page needs a free entry. A fault replay clears the
// waiting state of every entry — threads re-execute the access and either
// hit (serviced) or fault again.
//
// Like the hardware structure, the µTLB is fixed-size: the entries sit in
// insertion order in an array of the cap's size, beside an open-addressed
// index (a power-of-two slot count of at least twice the cap, a
// multiplicative hash and linear probing). Nothing allocates after
// construction, and no member has a growth path: the engine's probe loop
// inlines these members, and a reallocating push_back there costs GCC's
// inliner enough to stop it inlining the residency probe into that loop.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

class UTlb {
 public:
  explicit UTlb(std::uint32_t outstanding_cap)
      : cap_(outstanding_cap),
        entries_(outstanding_cap),
        index_(std::bit_ceil(std::max<std::size_t>(
            2 * std::size_t{outstanding_cap}, 2))),
        mask_(index_.size() - 1),
        shift_(64 - std::countr_zero(index_.size())) {}

  bool full() const noexcept { return count_ >= cap_; }
  bool has_outstanding(PageId page) const noexcept {
    for (std::size_t s = home(page);; s = (s + 1) & mask_) {
      if (index_[s] == 0) return false;
      if (entries_[index_[s] - 1] == page) return true;
    }
  }

  /// Register a new outstanding fault. Precondition: !full() && !has().
  void add_outstanding(PageId page) noexcept {
    std::size_t s = home(page);
    while (index_[s] != 0) s = (s + 1) & mask_;
    entries_[count_] = page;
    index_[s] = ++count_;
  }

  /// Replay: every waiting entry is cleared; threads retry their accesses.
  void clear() noexcept {
    if (count_ == 0) return;
    std::ranges::fill(index_, 0u);
    count_ = 0;
  }

  std::size_t outstanding_count() const noexcept { return count_; }
  /// The outstanding pages in the order they were added.
  std::span<const PageId> outstanding() const noexcept {
    return {entries_.data(), count_};
  }
  std::uint32_t capacity() const noexcept { return cap_; }

 private:
  std::size_t home(PageId page) const noexcept {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::uint32_t cap_;
  std::uint32_t count_ = 0;
  std::vector<PageId> entries_;       // the first count_ are outstanding
  std::vector<std::uint32_t> index_;  // entry position + 1; 0 = empty
  std::size_t mask_;                  // index_.size() - 1
  int shift_;                         // 64 - log2(index_.size())
};

}  // namespace uvmsim
