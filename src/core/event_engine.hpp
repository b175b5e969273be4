// Discrete-event simulation core.
//
// Components post timestamped events — fault arrivals, batch completions,
// GPU compute-window boundaries, counter-notification interrupts — into a
// central priority queue, and the engine executes them in deterministic
// order: events are totally ordered by the key (time, component-id,
// sequence). Two events at the same simulated time always execute in the
// same order regardless of which component posted first at runtime, which
// is what keeps multi-stream merges (multi-client and multi-GPU
// arbitration) byte-identical across repeat runs.
//
// The engine's clock jumps: popping an event scheduled later than `now`
// advances the clock straight to the event's time, so an idle gap of any
// length costs O(1) host work. The engine is single-threaded; host
// parallelism lives across independent simulations
// (core/parallel_runner.hpp), not inside one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

/// Stable component ids used as the second key of the event order. Lower
/// ids win ties at equal timestamps.
namespace components {
constexpr std::uint32_t kGpu = 0;          // fault generation, windows
constexpr std::uint32_t kDriver = 1;       // interrupts, batch servicing
constexpr std::uint32_t kCounters = 2;     // access-counter channel
constexpr std::uint32_t kInterconnect = 3; // DMA / copy-engine completions
constexpr std::uint32_t kHostOs = 4;       // host-OS callbacks
constexpr std::uint32_t kClientBase = 16;  // multi-client: client i -> 16+i
}  // namespace components

class EventEngine {
 public:
  using EventId = std::uint64_t;
  using Handler = std::function<void(SimTime now)>;

  struct Stats {
    std::uint64_t posted = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;       // cancel() + reschedule() removals
    std::uint64_t idle_ns_skipped = 0; // clock jumped over this much idle
    std::uint64_t clock_advances = 0;  // advance_to calls that moved time
    std::size_t max_queue_depth = 0;
  };

  SimTime now() const noexcept { return now_; }
  const Stats& stats() const noexcept { return stats_; }

  bool empty() const noexcept { return live_.empty(); }
  std::size_t pending() const noexcept { return live_.size(); }

  /// Earliest live event's scheduled time; nullopt when empty.
  std::optional<SimTime> next_event_time() const;

  /// Schedule `handler` at simulated `time` on behalf of `component`.
  /// Times in the past are legal (the event fires "immediately": the
  /// clock never moves backwards, so it executes at the current now).
  EventId post(SimTime time, std::uint32_t component, Handler handler);

  /// Remove a pending event. Returns false if it already executed or was
  /// already cancelled.
  bool cancel(EventId id);

  /// Move a pending event to `new_time`, keeping its component and
  /// handler. The event's order against same-time events is re-derived
  /// from a fresh sequence number (a rescheduled event behaves exactly
  /// like a newly posted one). Returns false if the event already
  /// executed or was cancelled.
  bool reschedule(EventId id, SimTime new_time);

  /// Pop and execute the earliest live event, advancing the clock to its
  /// time first. Returns false when no live event remains.
  bool step();

  /// Execute events until the queue drains. Handlers may post further
  /// events; they are executed in key order like any other.
  void run();

  /// Jump the clock forward to `t` (no-op when t <= now). Handlers call
  /// this to charge compute/service durations onto the timeline.
  void advance_to(SimTime t);

  /// advance_to(now + delta).
  void advance_by(SimTime delta) { advance_to(now_ + delta); }

  /// Reset the clock for a new run-stream segment (must be monotonic).
  /// Pending events must have drained first.
  void reset_clock(SimTime t);

 private:
  struct HeapEntry {
    SimTime time;
    std::uint32_t component;
    std::uint64_t seq;  // live sequence; stale entries are skipped on pop
    EventId id;

    bool operator>(const HeapEntry& o) const noexcept {
      if (time != o.time) return time > o.time;
      if (component != o.component) return component > o.component;
      return seq > o.seq;
    }
  };

  struct LiveEvent {
    Handler handler;
    std::uint64_t seq;  // matches exactly one live heap entry
    std::uint32_t component = 0;
  };

  // Drops cancelled/rescheduled heap heads. Logically const: the set of
  // live events is unchanged, only dead heap entries are reclaimed.
  void pop_stale() const;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  mutable std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                              std::greater<HeapEntry>>
      heap_;
  std::unordered_map<EventId, LiveEvent> live_;
  Stats stats_;
};

}  // namespace uvmsim
