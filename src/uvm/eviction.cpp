#include "uvm/eviction.hpp"

namespace uvmsim {

void Evictor::touch(VaBlockId block) {
  auto it = index_.find(block);
  if (it != index_.end()) {
    if (policy_ == EvictPolicy::kFifo) return;  // FIFO ignores re-touches
    order_.erase(it->second);
    index_.erase(it);
  }
  order_.push_back(block);
  index_.emplace(block, std::prev(order_.end()));
}

void Evictor::remove(VaBlockId block) {
  auto it = index_.find(block);
  if (it == index_.end()) return;
  order_.erase(it->second);
  index_.erase(it);
}

std::optional<VaBlockId> Evictor::pick_victim(VaBlockId protect) {
  for (auto it = order_.begin(); it != order_.end(); ++it) {
    if (*it != protect) return *it;
  }
  return std::nullopt;
}

std::optional<VaBlockId> Evictor::pick_victim(
    VaBlockId protect, const std::function<bool(VaBlockId)>& evictable) {
  std::optional<VaBlockId> fallback;
  for (auto it = order_.begin(); it != order_.end(); ++it) {
    if (*it == protect) continue;
    if (evictable(*it)) return *it;
    if (!fallback) fallback = *it;  // oldest shielded block, if forced
  }
  return fallback;
}

}  // namespace uvmsim
