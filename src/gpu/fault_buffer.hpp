// The GPU fault buffer: a circular array in device memory, configured and
// drained by the UVM driver (Fig 2).
//
// Semantics that matter to the study:
//   * bounded capacity — faults arriving when full are dropped by hardware
//     (the thread simply re-faults later);
//   * the driver drains from the head up to its batch-size limit;
//   * before a replay the driver *flushes* the buffer: all remaining
//     entries are discarded, and µTLBs reissue any that still miss (§4.2).
//
// Records live in one flat array: the pending ones are [head_, end), so a
// drain only advances head_ and a push allocates nothing once the array
// has grown to its working size. The array is compacted when head_ passes
// the capacity, which bounds it at about twice the capacity.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "gpu/fault.hpp"

namespace uvmsim {

class FaultBuffer {
 public:
  explicit FaultBuffer(std::size_t capacity) : capacity_(capacity) {}

  /// Hardware-side append. Returns false (and counts a drop) when full.
  bool push(const FaultRecord& fault);

  /// Driver-side drain of up to `max_count` oldest faults.
  std::vector<FaultRecord> drain(std::size_t max_count);

  /// Drain up to `max_count` faults following the real retrieval policy:
  /// "read until the batch size limit is reached or no faults remain".
  /// Records carry hardware arrival timestamps; the reader starts at
  /// `now`, takes `pace_ns` per record, and keeps reading records that
  /// have arrived by its advancing read clock — so a fast-faulting
  /// workload fills the batch while a slow one drains dry early.
  std::vector<FaultRecord> drain_arrived(std::size_t max_count, SimTime now,
                                         SimTime pace_ns = 60);

  /// Earliest pending arrival time; nullopt when empty.
  std::optional<SimTime> next_arrival() const;

  /// Restore arrival (timestamp) order, stably. The engine emits per-SM
  /// streams interleaved in scan order; hardware writes records as they
  /// arrive.
  void sort_pending();

  /// Discard everything (pre-replay flush). Returns how many were dropped.
  std::size_t flush();

  /// Pre-replay flush of entries that have arrived by `now`; in-flight
  /// (future-timestamped) records survive and land after the replay.
  std::size_t flush_arrived(SimTime now);

  bool empty() const noexcept { return head_ == entries_.size(); }
  std::size_t size() const noexcept { return entries_.size() - head_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Wedged state (injected fatal class): the buffer's GET/PUT interface
  /// stops presenting records to the driver — drain_arrived returns
  /// nothing while entries pile up (and overflow) behind the wedge. Only
  /// a channel or full GPU reset clears it (core/system watchdog).
  void set_wedged() noexcept {
    if (!wedged_) ++total_wedges_;
    wedged_ = true;
  }
  void clear_wedged() noexcept { wedged_ = false; }
  bool wedged() const noexcept { return wedged_; }
  std::uint64_t total_wedges() const noexcept { return total_wedges_; }

  std::uint64_t total_pushed() const noexcept { return pushed_; }
  std::uint64_t total_dropped_full() const noexcept { return dropped_full_; }
  std::uint64_t total_flushed() const noexcept { return flushed_; }

 private:
  /// Remove the `n` oldest pending records.
  void pop_front(std::size_t n);

  std::size_t capacity_;
  std::vector<FaultRecord> entries_;  // pending records are [head_, end)
  std::vector<FaultRecord> sort_scratch_;  // sort_pending's radix pass
  std::size_t head_ = 0;
  bool wedged_ = false;
  std::uint64_t pushed_ = 0;
  std::uint64_t dropped_full_ = 0;
  std::uint64_t flushed_ = 0;
  std::uint64_t total_wedges_ = 0;
};

}  // namespace uvmsim
