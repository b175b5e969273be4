// GPU access-counter hardware model: the second GMMU->driver notification
// channel next to the replayable-fault path (Volta+; the paper's Titan V
// testbed exposes both, but only the fault channel is exercised there).
//
// Real nvidia-uvm programs two banks of per-region counters. The model
// has the one the GPU engine feeds, MIMC (migratable-memory counters):
// this GPU's accesses that resolve over the interconnect to remote
// (sysmem) pages. Crossing the threshold tells the driver the region is
// hot enough that migrating it to local HBM may beat continued remote
// access. The other bank, MOMC (other processors' accesses to this GPU's
// memory), is not modeled.
//
// Mechanics modeled after the hardware registers:
//   * granularity — pages per counted region (clamped to a power of two
//     that divides the 512-page VABlock, so a region never spans blocks);
//   * threshold   — accesses that arm a notification;
//   * a dedicated circular notification buffer with overflow-drop
//     semantics (like the fault buffer, arriving notifications are
//     dropped on the floor when it is full);
//   * clear-on-service — a region that notified stays silent (its counter
//     no longer arms) until the driver clears it; a dropped notification
//     resets the count but leaves the region armed, so sustained traffic
//     re-crosses the threshold and retries.
//
// Determinism: counting is a pure function of the access stream; the only
// randomness is the optional FaultInjector's notification-loss probe,
// which draws from its own per-site stream. With the unit absent
// (counters disabled) no layer takes any hook, keeping disabled runs
// bit-identical to pre-counter builds.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/fault_inject.hpp"
#include "common/types.hpp"

namespace uvmsim {

struct AccessCounterNotification {
  PageId base_page = 0;          // first page of the notifying region
  std::uint32_t region_pages = 0;
  std::uint32_t count = 0;       // counter value when it crossed
  std::uint32_t sm = 0;          // SM whose access crossed the threshold
  SimTime arrival_ns = 0;        // GMMU write time into the buffer
};

class AccessCounterUnit {
 public:
  /// Register values the driver programs at init: pages per counted
  /// region (rounded down to a power of two in [1, 512]), the notify
  /// threshold (min 1), and the notification-buffer capacity (min 1).
  AccessCounterUnit(std::uint32_t granularity_pages, std::uint32_t threshold,
                    std::uint32_t buffer_entries);

  /// Attach the fault-injection schedule (lost notifications). May be
  /// null; the unit does not own it.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  /// One warp request served over the interconnect (µTLB resolution of a
  /// remote-mapped page): bump the page's MIMC region counter and emit a
  /// notification if it crossed the threshold while armed.
  void record_remote_access(PageId page, std::uint32_t sm, SimTime now);

  /// Driver-side batch fetch: pop up to `max_count` notifications that
  /// have arrived by `now`, oldest first.
  std::vector<AccessCounterNotification> drain_arrived(std::size_t max_count,
                                                       SimTime now);

  /// Clear-on-service: reset the region's counter and re-arm it so future
  /// traffic can notify again. Idempotent on unknown regions.
  void clear_region(PageId base_page);

  // ---- Register reads ---------------------------------------------------
  std::uint32_t granularity_pages() const noexcept { return granularity_; }
  std::uint32_t threshold() const noexcept { return threshold_; }
  std::size_t buffer_capacity() const noexcept { return capacity_; }
  std::size_t pending() const noexcept { return buffer_.size(); }
  bool empty() const noexcept { return buffer_.empty(); }

  /// GMMU write time of the oldest pending notification; meaningless (0)
  /// when the buffer is empty. The interrupt line the driver's idle-time
  /// drain keys off.
  SimTime next_arrival() const noexcept {
    return buffer_.empty() ? 0 : buffer_.front().arrival_ns;
  }

  // ---- Accounting -------------------------------------------------------
  std::uint64_t total_accesses() const noexcept { return accesses_; }
  std::uint64_t total_notifications() const noexcept { return notified_; }
  std::uint64_t total_dropped_full() const noexcept { return dropped_full_; }
  std::uint64_t total_cleared() const noexcept { return cleared_; }

 private:
  struct Region {
    std::uint32_t count = 0;
    bool armed = true;  // false after a queued notification, until cleared
  };

  std::uint32_t granularity_;
  std::uint32_t threshold_;
  std::size_t capacity_;
  FaultInjector* injector_ = nullptr;  // not owned; null = no injection

  std::unordered_map<std::uint64_t, Region> regions_;
  std::deque<AccessCounterNotification> buffer_;

  std::uint64_t accesses_ = 0;
  std::uint64_t notified_ = 0;
  std::uint64_t dropped_full_ = 0;
  std::uint64_t cleared_ = 0;
};

}  // namespace uvmsim
