#include "gpu/fault_buffer.hpp"

#include <algorithm>

namespace uvmsim {

bool FaultBuffer::push(const FaultRecord& fault) {
  if (size() >= capacity_) {
    ++dropped_full_;
    return false;
  }
  if (head_ >= capacity_) {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  entries_.push_back(fault);
  ++pushed_;
  return true;
}

void FaultBuffer::pop_front(std::size_t n) {
  head_ += n;
  if (head_ == entries_.size()) {
    entries_.clear();
    head_ = 0;
  }
}

std::vector<FaultRecord> FaultBuffer::drain(std::size_t max_count) {
  const std::size_t n = std::min(max_count, size());
  const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(head_);
  std::vector<FaultRecord> out(first, first + static_cast<std::ptrdiff_t>(n));
  pop_front(n);
  return out;
}

std::vector<FaultRecord> FaultBuffer::drain_arrived(std::size_t max_count,
                                                    SimTime now,
                                                    SimTime pace_ns) {
  if (wedged_) return {};  // HW presents nothing until a reset
  SimTime read_clock = now;
  std::size_t n = 0;
  while (n < max_count && head_ + n < entries_.size() &&
         entries_[head_ + n].timestamp <= read_clock) {
    ++n;
    read_clock += pace_ns;
  }
  const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(head_);
  std::vector<FaultRecord> out(first, first + static_cast<std::ptrdiff_t>(n));
  pop_front(n);
  return out;
}

std::optional<SimTime> FaultBuffer::next_arrival() const {
  if (empty()) return std::nullopt;
  return entries_[head_].timestamp;
}

void FaultBuffer::sort_pending() {
  std::stable_sort(entries_.begin() + static_cast<std::ptrdiff_t>(head_),
                   entries_.end(),
                   [](const FaultRecord& a, const FaultRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
}

std::size_t FaultBuffer::flush() {
  const std::size_t n = size();
  pop_front(n);
  flushed_ += n;
  return n;
}

std::size_t FaultBuffer::flush_arrived(SimTime now) {
  std::size_t n = 0;
  while (head_ + n < entries_.size() &&
         entries_[head_ + n].timestamp <= now) {
    ++n;
  }
  pop_front(n);
  flushed_ += n;
  return n;
}

}  // namespace uvmsim
