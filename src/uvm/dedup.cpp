#include "uvm/dedup.hpp"

#include <unordered_map>

namespace uvmsim {

DedupResult dedup_faults(const std::vector<FaultRecord>& batch) {
  DedupResult out;
  out.unique.reserve(batch.size());

  struct Seen {
    std::size_t unique_index;
    std::uint64_t utlb_mask;  // µTLBs that have faulted this page so far
  };
  std::unordered_map<PageId, Seen> seen;
  seen.reserve(batch.size());

  for (const FaultRecord& fault : batch) {
    const std::uint64_t utlb_bit = 1ULL << (fault.utlb % 64);
    auto [it, inserted] = seen.try_emplace(
        fault.page, Seen{out.unique.size(), utlb_bit});
    if (inserted) {
      out.unique.push_back(fault);
      continue;
    }
    // Duplicate: classify against the set of µTLBs already seen. A fault
    // from a µTLB that already reported this page is type (1); a new µTLB
    // means cross-block sharing, type (2).
    if (it->second.utlb_mask & utlb_bit) {
      ++out.dup_same_utlb;
    } else {
      ++out.dup_cross_utlb;
      it->second.utlb_mask |= utlb_bit;
    }
    // Write faults upgrade the surviving record so migration installs a
    // writable mapping.
    if (fault.access == AccessType::kWrite) {
      out.unique[it->second.unique_index].access = AccessType::kWrite;
    }
  }
  return out;
}

}  // namespace uvmsim
