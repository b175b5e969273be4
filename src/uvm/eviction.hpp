// VABlock eviction policy (Section 5.1).
//
// When GPU memory is exhausted, UVM evicts whole VABlocks chosen by LRU.
// The paper notes the driver has no page-hit information, so "LRU" in
// practice degrades to earliest-allocated for dense access (Fig 17c) —
// which is exactly what a touch-on-service LRU produces. A FIFO policy is
// included for the ablation called out in DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>

#include "common/types.hpp"

namespace uvmsim {

enum class EvictPolicy : std::uint8_t { kLru, kFifo };

class Evictor {
 public:
  explicit Evictor(EvictPolicy policy = EvictPolicy::kLru) : policy_(policy) {}

  /// Record that `block` is resident and was just serviced. Under LRU an
  /// existing entry moves to most-recent; under FIFO insertion order is
  /// kept.
  void touch(VaBlockId block);

  /// Remove a block from tracking (it was evicted or freed).
  void remove(VaBlockId block);

  /// Choose a victim, skipping `protect` (the block being serviced).
  std::optional<VaBlockId> pick_victim(VaBlockId protect);

  /// Same, but also skipping blocks the predicate rejects (thrashing
  /// shields). Falls back to the shielded candidates when nothing else is
  /// evictable — memory pressure always wins over a shield.
  std::optional<VaBlockId> pick_victim(
      VaBlockId protect, const std::function<bool(VaBlockId)>& evictable);

  bool tracks(VaBlockId block) const { return index_.contains(block); }
  std::size_t tracked() const noexcept { return order_.size(); }
  EvictPolicy policy() const noexcept { return policy_; }

 private:
  EvictPolicy policy_;
  std::list<VaBlockId> order_;  // front = oldest / least recent
  std::unordered_map<VaBlockId, std::list<VaBlockId>::iterator> index_;
};

}  // namespace uvmsim
