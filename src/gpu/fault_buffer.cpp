#include "gpu/fault_buffer.hpp"

#include <algorithm>
#include <array>
#include <utility>

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
  // Any stable sort by timestamp gives the same order. When the pending
  // records span less than 2^22 ns, two 11-bit digits of
  // `timestamp - min` key them, and a stable LSD radix sort orders them in
  // two scatter passes; few records or a wider span take std::stable_sort.
  constexpr std::size_t kMinRadixRecords = 64;
  constexpr unsigned kDigitBits = 11;
  constexpr SimTime kBuckets = SimTime{1} << kDigitBits;
  constexpr SimTime kRadixRange = kBuckets * kBuckets;  // 2^22 ns

  const std::size_t n = size();
  if (n < 2) return;
  FaultRecord* const pending = entries_.data() + head_;
  SimTime lo = pending[0].timestamp;
  SimTime hi = lo;
  bool sorted = true;
  for (std::size_t i = 1; i < n; ++i) {
    const SimTime t = pending[i].timestamp;
    sorted = sorted && pending[i - 1].timestamp <= t;
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (sorted) return;
  if (n < kMinRadixRecords || hi - lo >= kRadixRange) {
    std::stable_sort(pending, pending + n,
                     [](const FaultRecord& a, const FaultRecord& b) {
                       return a.timestamp < b.timestamp;
                     });
    return;
  }

  // Bucket starts for the low digit in [0, kBuckets) and the high digit in
  // [kBuckets, 2 * kBuckets), from one counting pass.
  std::array<std::uint32_t, 2 * kBuckets> start{};
  const auto low = [lo](const FaultRecord& f) {
    return (f.timestamp - lo) & (kBuckets - 1);
  };
  const auto high = [lo](const FaultRecord& f) {
    return kBuckets + ((f.timestamp - lo) >> kDigitBits);
  };
  for (std::size_t i = 0; i < n; ++i) {
    ++start[low(pending[i])];
    ++start[high(pending[i])];
  }
  std::uint32_t low_sum = 0;
  std::uint32_t high_sum = 0;
  for (SimTime b = 0; b < kBuckets; ++b) {
    low_sum += std::exchange(start[b], low_sum);
    high_sum += std::exchange(start[kBuckets + b], high_sum);
  }
  sort_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sort_scratch_[start[low(pending[i])]++] = pending[i];
  }
  for (const FaultRecord& f : sort_scratch_) pending[start[high(f)]++] = f;
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
