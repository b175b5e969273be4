// Duplicate-fault filtering and classification (Section 4.2).
//
// The driver distinguishes (1) duplicates from the same µTLB (spatial
// locality within a warp/block; the paper also names spurious SM wakeups,
// which the GPU engine does not model) and (2) duplicates from different
// µTLBs (data sharing across blocks). Both are filtered before servicing;
// write faults upgrade the surviving record's access.
#pragma once

#include <cstdint>
#include <vector>

#include "gpu/fault.hpp"

namespace uvmsim {

struct DedupResult {
  std::vector<FaultRecord> unique;  // one record per distinct page
  std::uint32_t dup_same_utlb = 0;
  std::uint32_t dup_cross_utlb = 0;
};

/// Filter duplicates out of a drained batch, preserving first-arrival
/// order of the surviving records.
DedupResult dedup_faults(const std::vector<FaultRecord>& batch);

}  // namespace uvmsim
