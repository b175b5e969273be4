#include "core/event_engine.hpp"

#include <stdexcept>

namespace uvmsim {

void EventEngine::pop_stale() const {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.top();
    auto it = live_.find(top.id);
    if (it != live_.end() && it->second.seq == top.seq) return;
    heap_.pop();  // cancelled or rescheduled-away entry
  }
}

std::optional<SimTime> EventEngine::next_event_time() const {
  pop_stale();
  if (heap_.empty()) return std::nullopt;
  return heap_.top().time;
}

EventEngine::EventId EventEngine::post(SimTime time, std::uint32_t component,
                                       Handler handler) {
  const EventId id = next_id_++;
  const std::uint64_t seq = next_seq_++;
  live_.emplace(id, LiveEvent{std::move(handler), seq, component});
  heap_.push(HeapEntry{time, component, seq, id});
  ++stats_.posted;
  if (live_.size() > stats_.max_queue_depth) {
    stats_.max_queue_depth = live_.size();
  }
  return id;
}

bool EventEngine::cancel(EventId id) {
  auto it = live_.find(id);
  if (it == live_.end()) return false;
  live_.erase(it);  // matching heap entry turns stale; dropped on pop
  ++stats_.cancelled;
  return true;
}

bool EventEngine::reschedule(EventId id, SimTime new_time) {
  auto it = live_.find(id);
  if (it == live_.end()) return false;
  // The old heap entry turns stale (seq mismatch); push a fresh one so
  // the event re-enters the total order as if newly posted.
  const std::uint64_t seq = next_seq_++;
  it->second.seq = seq;
  heap_.push(HeapEntry{new_time, it->second.component, seq, id});
  ++stats_.cancelled;  // the superseded entry counts as a removal
  return true;
}

bool EventEngine::step() {
  pop_stale();
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.top();
  heap_.pop();
  auto it = live_.find(top.id);
  Handler handler = std::move(it->second.handler);
  live_.erase(it);
  advance_to(top.time);
  ++stats_.executed;
  handler(now_);
  return true;
}

void EventEngine::run() {
  while (step()) {
  }
}

void EventEngine::advance_to(SimTime t) {
  if (t <= now_) return;
  ++stats_.clock_advances;
  stats_.idle_ns_skipped += t - now_;
  now_ = t;
}

void EventEngine::reset_clock(SimTime t) {
  if (!live_.empty()) {
    throw std::logic_error(
        "EventEngine::reset_clock with pending events");
  }
  if (t < now_) {
    throw std::logic_error("EventEngine clock must be monotonic");
  }
  now_ = t;
}

}  // namespace uvmsim
