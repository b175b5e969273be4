#include "uvm/dedup.hpp"

#include <algorithm>
#include <bit>

namespace uvmsim {

FaultDeduper::FaultDeduper(std::size_t batch_capacity) {
  resize(batch_capacity);
}

void FaultDeduper::resize(std::size_t records) {
  // At least twice the batch in slots keeps the probe runs short.
  slots_.assign(std::bit_ceil(std::max<std::size_t>(2 * records, 2)), Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  stamp_ = 0;
  result_.unique.reserve(records);
}

const DedupResult& FaultDeduper::dedup(const std::vector<FaultRecord>& batch) {
  DedupResult& out = result_;
  out.unique.clear();
  out.dup_same_utlb = 0;
  out.dup_cross_utlb = 0;
  if (batch.empty()) return out;
  if (slots_.size() < 2 * batch.size()) resize(batch.size());
  if (++stamp_ == 0) {  // wrapped: stale stamps could read as live
    std::ranges::fill(slots_, Slot{});
    stamp_ = 1;
  }
  const std::size_t mask = slots_.size() - 1;

  for (const FaultRecord& fault : batch) {
    const std::uint64_t utlb_bit = 1ULL << (fault.utlb % 64);
    std::size_t s = static_cast<std::size_t>(
        (fault.page * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[s].stamp == stamp_ && slots_[s].page != fault.page) {
      s = (s + 1) & mask;
    }
    Slot& seen = slots_[s];
    if (seen.stamp != stamp_) {
      seen = Slot{fault.page, utlb_bit,
                  static_cast<std::uint32_t>(out.unique.size()), stamp_};
      out.unique.push_back(fault);
      continue;
    }
    // Duplicate: classify against the set of µTLBs already seen. A fault
    // from a µTLB that already reported this page is type (1); a new µTLB
    // means cross-block sharing, type (2).
    if (seen.utlb_mask & utlb_bit) {
      ++out.dup_same_utlb;
    } else {
      ++out.dup_cross_utlb;
      seen.utlb_mask |= utlb_bit;
    }
    // Write faults upgrade the surviving record so migration installs a
    // writable mapping.
    if (fault.access == AccessType::kWrite) {
      out.unique[seen.unique_index].access = AccessType::kWrite;
    }
  }
  return out;
}

}  // namespace uvmsim
