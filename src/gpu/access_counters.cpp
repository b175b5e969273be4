#include "gpu/access_counters.hpp"

namespace uvmsim {
namespace {

/// Largest power of two <= v, clamped to [1, kPagesPerVaBlock] so a
/// counted region always divides (and never spans) one VABlock.
std::uint32_t clamp_granularity(std::uint32_t v) {
  if (v < 1) return 1;
  if (v > kPagesPerVaBlock) return kPagesPerVaBlock;
  std::uint32_t pow2 = 1;
  while (pow2 * 2 <= v) pow2 *= 2;
  return pow2;
}

}  // namespace

AccessCounterUnit::AccessCounterUnit(std::uint32_t granularity_pages,
                                     std::uint32_t threshold,
                                     std::uint32_t buffer_entries)
    : granularity_(clamp_granularity(granularity_pages)),
      threshold_(threshold < 1 ? 1 : threshold),
      capacity_(buffer_entries < 1 ? 1 : buffer_entries) {}

void AccessCounterUnit::record_remote_access(PageId page, std::uint32_t sm,
                                             SimTime now) {
  ++accesses_;
  const std::uint64_t region_key = page / granularity_;
  Region& region = regions_[region_key];
  ++region.count;
  if (!region.armed || region.count < threshold_) return;

  // Threshold crossed on an armed region: the GMMU emits one notification.
  // A notification lost in transit (injected) or dropped by a full buffer
  // resets the count but leaves the region armed, so sustained traffic
  // retries; a queued one disarms the region until the driver clears it.
  if (injector_ && injector_->counter_notification_loss()) {
    region.count = 0;
    return;
  }
  if (buffer_.size() >= capacity_) {
    ++dropped_full_;
    region.count = 0;
    return;
  }
  AccessCounterNotification n;
  n.base_page = region_key * granularity_;
  n.region_pages = granularity_;
  n.count = region.count;
  n.sm = sm;
  n.arrival_ns = now;
  buffer_.push_back(n);
  ++notified_;
  region.armed = false;
}

std::vector<AccessCounterNotification> AccessCounterUnit::drain_arrived(
    std::size_t max_count, SimTime now) {
  std::vector<AccessCounterNotification> out;
  while (out.size() < max_count && !buffer_.empty() &&
         buffer_.front().arrival_ns <= now) {
    out.push_back(buffer_.front());
    buffer_.pop_front();
  }
  return out;
}

void AccessCounterUnit::clear_region(PageId base_page) {
  const auto it = regions_.find(base_page / granularity_);
  if (it == regions_.end()) return;
  it->second.count = 0;
  it->second.armed = true;
  ++cleared_;
}

}  // namespace uvmsim
