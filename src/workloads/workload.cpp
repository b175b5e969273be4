#include "workloads/workload.hpp"

#include "workloads/detail.hpp"

namespace uvmsim::detail {

std::vector<PageId> layout_bases(const std::vector<AllocSpec>& allocs) {
  AllocLayout layout;
  std::vector<PageId> bases;
  bases.reserve(allocs.size());
  for (const auto& a : allocs) bases.push_back(layout.add(a.bytes));
  return bases;
}

std::uint64_t layout_pages(const std::vector<AllocSpec>& allocs) {
  AllocLayout layout;
  for (const auto& a : allocs) layout.add(a.bytes);
  return layout.next_free_page();
}

}  // namespace uvmsim::detail
