// Tree-based density prefetcher (Section 5.2; algorithm from refs [2,14,21]).
//
// Scope is a single VABlock and the prefetcher is purely reactive: while a
// block is being serviced for faults, a full binary tree is built over its
// 64 KB big pages (32 leaves for a 2 MB block). A leaf counts as occupied
// when any of its 4 KB pages is (or is about to become) GPU-resident. Any
// subtree whose occupied fraction reaches the density threshold is pulled
// in whole, and the largest qualifying subtrees win. The prefetcher also
// implements the 4 KB -> 64 KB promotion UVM applies on x86 ("pages are
// upgraded from 4KB to 64KB within the UVM runtime as a component of
// prefetching", §2.2).
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "common/page_mask.hpp"

namespace uvmsim {

class TreePrefetcher {
 public:
  using PageMask = uvmsim::PageMask;

  explicit TreePrefetcher(double density_threshold = 0.51,
                          bool big_page_promotion = true)
      : threshold_(density_threshold), promote_(big_page_promotion) {}

  /// Compute the pages to pull in beyond `faulted`, given the block's
  /// current `resident` set. The returned mask excludes pages that are
  /// already resident or already in the faulted set.
  PageMask compute(const PageMask& resident, const PageMask& faulted) const;

  double threshold() const noexcept { return threshold_; }

 private:
  double threshold_;
  bool promote_;
};

}  // namespace uvmsim
