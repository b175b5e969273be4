// Duplicate-fault filtering and classification (Section 4.2).
//
// The driver distinguishes (1) duplicates from the same µTLB (spatial
// locality within a warp/block; the paper also names spurious SM wakeups,
// which the GPU engine does not model) and (2) duplicates from different
// µTLBs (data sharing across blocks). Both are filtered before servicing;
// write faults upgrade the surviving record's access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpu/fault.hpp"

namespace uvmsim {

struct DedupResult {
  std::vector<FaultRecord> unique;  // one record per distinct page
  std::uint32_t dup_same_utlb = 0;
  std::uint32_t dup_cross_utlb = 0;
};

/// Filters the duplicates out of one drained batch at a time. The page
/// table is open-addressed and generation-stamped: a batch starts by
/// bumping the stamp instead of wiping the table, and the table grows only
/// when a batch needs more than half of it. The result is reused too, so
/// a deduper allocates only while its batches grow.
class FaultDeduper {
 public:
  /// Sized for batches of up to `batch_capacity` records; larger ones
  /// grow it.
  explicit FaultDeduper(std::size_t batch_capacity = 0);

  /// Filter duplicates out of `batch`, preserving first-arrival order of
  /// the surviving records. The result stays valid until the next call.
  const DedupResult& dedup(const std::vector<FaultRecord>& batch);

 private:
  struct Slot {
    PageId page = 0;
    std::uint64_t utlb_mask = 0;  // µTLBs that have faulted this page so far
    std::uint32_t unique_index = 0;
    std::uint32_t stamp = 0;      // the slot is live when it equals stamp_
  };

  /// Size the table for batches of up to `records` and reset the stamp.
  void resize(std::size_t records);

  std::vector<Slot> slots_;  // power-of-two size
  int shift_ = 64;           // 64 - log2(slots_.size())
  std::uint32_t stamp_ = 0;
  DedupResult result_;
};

}  // namespace uvmsim
