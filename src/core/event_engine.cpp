#include "core/event_engine.hpp"

#include <algorithm>
#include <utility>

namespace uvmsim {

void EventEngine::post(SimTime time, std::uint32_t component,
                       Handler handler) {
  queue_.push_back(Event{time, component, next_seq_++, std::move(handler)});
  std::push_heap(queue_.begin(), queue_.end(), later);
  ++stats_.posted;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
}

void EventEngine::run() {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), later);
    Event event = std::move(queue_.back());
    queue_.pop_back();
    advance_to(event.time);
    ++stats_.executed;
    event.handler(now_);
  }
}

void EventEngine::advance_to(SimTime t) {
  if (t <= now_) return;
  ++stats_.clock_advances;
  stats_.idle_ns_skipped += t - now_;
  now_ = t;
}

}  // namespace uvmsim
