// Discrete-event simulation core.
//
// Components post timestamped events — kernel launches, fault-buffer
// interrupts, batch services, throttle refills, counter-notification
// interrupts — into a central priority queue, and the engine executes them
// in deterministic order: events are totally ordered by the key (time,
// component-id, sequence). Two events at the same simulated time always
// execute in the same order regardless of which component posted first at
// runtime, so repeat runs are byte-identical.
//
// The engine's clock jumps: popping an event scheduled later than `now`
// advances the clock straight to the event's time, so an idle gap of any
// length costs O(1) host work. The engine is single-threaded; host
// parallelism lives across independent simulations
// (core/parallel_runner.hpp), not inside one.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

/// Stable component ids used as the second key of the event order. Lower
/// ids win ties at equal timestamps.
namespace components {
constexpr std::uint32_t kGpu = 0;       // launches, windows, throttle refills
constexpr std::uint32_t kDriver = 1;    // interrupts, batch servicing
constexpr std::uint32_t kCounters = 2;  // access-counter channel
}  // namespace components

class EventEngine {
 public:
  using Handler = std::function<void(SimTime now)>;

  struct Stats {
    std::uint64_t posted = 0;
    std::uint64_t executed = 0;
    std::uint64_t idle_ns_skipped = 0; // clock jumped over this much idle
    std::uint64_t clock_advances = 0;  // advance_to calls that moved time
    std::size_t max_queue_depth = 0;
  };

  SimTime now() const noexcept { return now_; }
  const Stats& stats() const noexcept { return stats_; }

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t pending() const noexcept { return queue_.size(); }

  /// Schedule `handler` at simulated `time` on behalf of `component`.
  /// Times in the past are legal (the event fires "immediately": the
  /// clock never moves backwards, so it executes at the current now).
  void post(SimTime time, std::uint32_t component, Handler handler);

  /// Execute events in key order until the queue drains, advancing the
  /// clock to each event's time first. Handlers may post further events.
  void run();

  /// Jump the clock forward to `t` (no-op when t <= now). Handlers call
  /// this to charge compute/service durations onto the timeline.
  void advance_to(SimTime t);

  /// advance_to(now + delta).
  void advance_by(SimTime delta) { advance_to(now_ + delta); }

 private:
  struct Event {
    SimTime time;
    std::uint32_t component;
    std::uint64_t seq;
    Handler handler;
  };

  /// Heap order: true when `a` executes after `b`, so the heap's front
  /// is the earliest (time, component, seq) key.
  static bool later(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    if (a.component != b.component) return a.component > b.component;
    return a.seq > b.seq;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> queue_;  // a binary heap under later()
  Stats stats_;
};

}  // namespace uvmsim
