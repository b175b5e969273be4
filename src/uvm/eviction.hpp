// VABlock eviction policy (Section 5.1).
//
// When GPU memory is exhausted, UVM evicts whole VABlocks chosen by LRU.
// The paper notes the driver has no page-hit information, so "LRU" in
// practice degrades to earliest-allocated for dense access (Fig 17c) —
// which is exactly what a touch-on-service LRU produces. A FIFO policy is
// included for the ablation called out in DESIGN.md.
//
// The order is an intrusive doubly-linked list over VABlock ids. Ids are
// dense per VA space, so the links live in an array indexed by id that
// grows on demand to the highest id touched; touch, remove and tracks are
// O(1) and allocate only while that id grows.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

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

  bool tracks(VaBlockId block) const {
    return block < links_.size() && links_[block].linked;
  }
  std::size_t tracked() const noexcept { return tracked_; }
  EvictPolicy policy() const noexcept { return policy_; }

 private:
  static constexpr VaBlockId kNil = ~VaBlockId{0};

  struct Link {
    VaBlockId prev = kNil;  // toward the oldest / least recent
    VaBlockId next = kNil;
    bool linked = false;
  };

  void unlink(VaBlockId block);

  EvictPolicy policy_;
  std::vector<Link> links_;  // indexed by VABlock id
  VaBlockId head_ = kNil;    // oldest / least recent
  VaBlockId tail_ = kNil;    // newest / most recent
  std::size_t tracked_ = 0;
};

}  // namespace uvmsim
