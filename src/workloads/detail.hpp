// Internal helpers shared by the workload builders.
#pragma once

#include <algorithm>
#include <vector>

#include "gpu/kernel_desc.hpp"
#include "workloads/workload.hpp"

namespace uvmsim::detail {

/// Compute the VABlock-aligned layout for a spec's allocations and return
/// the base page of each (mirrors VaSpace::allocate placement).
std::vector<PageId> layout_bases(const std::vector<AllocSpec>& allocs);

/// Pages the layout of `allocs` spans: the page bound of their kernel.
std::uint64_t layout_pages(const std::vector<AllocSpec>& allocs);

}  // namespace uvmsim::detail
