#include "uvm/eviction.hpp"

namespace uvmsim {

void Evictor::touch(VaBlockId block) {
  if (tracks(block)) {
    if (policy_ == EvictPolicy::kFifo) return;  // FIFO ignores re-touches
    unlink(block);
  }
  if (block >= links_.size()) links_.resize(block + 1);
  links_[block] = Link{tail_, kNil, true};
  if (tail_ == kNil) {
    head_ = block;
  } else {
    links_[tail_].next = block;
  }
  tail_ = block;
  ++tracked_;
}

void Evictor::remove(VaBlockId block) {
  if (tracks(block)) unlink(block);
}

void Evictor::unlink(VaBlockId block) {
  Link& link = links_[block];
  if (link.prev == kNil) {
    head_ = link.next;
  } else {
    links_[link.prev].next = link.next;
  }
  if (link.next == kNil) {
    tail_ = link.prev;
  } else {
    links_[link.next].prev = link.prev;
  }
  link = Link{};
  --tracked_;
}

std::optional<VaBlockId> Evictor::pick_victim(VaBlockId protect) {
  for (VaBlockId b = head_; b != kNil; b = links_[b].next) {
    if (b != protect) return b;
  }
  return std::nullopt;
}

std::optional<VaBlockId> Evictor::pick_victim(
    VaBlockId protect, const std::function<bool(VaBlockId)>& evictable) {
  std::optional<VaBlockId> fallback;
  for (VaBlockId b = head_; b != kNil; b = links_[b].next) {
    if (b == protect) continue;
    if (evictable(b)) return b;
    if (!fallback) fallback = b;  // oldest shielded block, if forced
  }
  return fallback;
}

}  // namespace uvmsim
