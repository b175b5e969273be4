#include "uvm/prefetcher.hpp"

#include <bit>

namespace uvmsim {

TreePrefetcher::PageMask TreePrefetcher::compute(const PageMask& resident,
                                                 const PageMask& faulted) const {
  const PageMask target = resident | faulted;
  if (target.none()) return {};

  // 4 KB -> 64 KB promotion: every faulted page drags in its big page.
  std::uint32_t pulled = promote_ ? faulted.big_pages() : 0;

  // Leaf occupancy: a big page is occupied if any of its pages is in the
  // target set (promotion adds none: a faulted page's big page is already
  // occupied).
  std::uint32_t occupied = target.big_pages();

  // Bottom-up density sweep over subtree widths 2, 4, ..., 32 big pages.
  // A node qualifies when occupied/width >= threshold; it is pulled in
  // whole and counts as fully occupied for higher levels.
  for (std::uint32_t width = 2; width <= kBigPagesPerVaBlock; width *= 2) {
    const auto node_bits =
        static_cast<std::uint32_t>((std::uint64_t{1} << width) - 1);
    std::uint32_t qualified = 0;
    for (std::uint32_t first = 0; first < kBigPagesPerVaBlock;
         first += width) {
      const std::uint32_t node = node_bits << first;
      const auto count =
          static_cast<std::uint32_t>(std::popcount(occupied & node));
      const double density =
          static_cast<double>(count) / static_cast<double>(width);
      if (count > 0 && density >= threshold_) qualified |= node;
    }
    occupied |= qualified;
    pulled |= qualified;
  }

  // Report only genuinely new pages.
  return PageMask::of_big_pages(pulled) & ~resident & ~faulted;
}

}  // namespace uvmsim
