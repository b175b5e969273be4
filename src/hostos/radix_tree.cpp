#include "hostos/radix_tree.hpp"

namespace uvmsim {

std::uint64_t RadixTree::max_key_for_height(unsigned height) noexcept {
  // height h covers keys < 2^(6h); saturate at the full 64-bit space.
  if (height * kMapShift >= 64) return ~0ULL;
  return (1ULL << (height * kMapShift)) - 1;
}

std::unique_ptr<RadixTree::Node> RadixTree::make_node(InsertResult& result) {
  ++result.nodes_allocated;
  ++node_count_;
  return std::make_unique<Node>();
}

RadixTree::InsertResult RadixTree::insert(std::uint64_t key) {
  InsertResult result;

  if (!root_) {
    // Empty tree: allocate a root at exactly the height the key needs
    // (no point chaining empty intermediate roots).
    height_ = 1;
    while (key > max_key_for_height(height_)) ++height_;
    root_ = make_node(result);
  }

  // Grow the tree from the root until the key fits, one level at a time —
  // exactly the radix_tree_extend() dance in the kernel. Each growth step
  // allocates a new root whose slot 0 points at the old tree.
  while (key > max_key_for_height(height_)) {
    auto new_root = make_node(result);
    new_root->child[0] = std::move(root_);
    root_ = std::move(new_root);
    ++height_;
    result.grew_height = true;
  }

  Node* node = root_.get();
  for (unsigned level = height_; level > 1; --level) {
    const unsigned shift = (level - 1) * kMapShift;
    const auto slot = static_cast<unsigned>((key >> shift) & (kMapSize - 1));
    if (!node->child[slot]) node->child[slot] = make_node(result);
    node = node->child[slot].get();
  }

  const std::uint64_t bit = std::uint64_t{1} << (key & (kMapSize - 1));
  if (node->present & bit) return result;
  node->present |= bit;
  ++size_;
  result.inserted = true;
  return result;
}

bool RadixTree::contains(std::uint64_t key) const {
  if (!root_ || key > max_key_for_height(height_)) return false;
  const Node* node = root_.get();
  for (unsigned level = height_; level > 1; --level) {
    const unsigned shift = (level - 1) * kMapShift;
    const auto slot = static_cast<unsigned>((key >> shift) & (kMapSize - 1));
    if (!node->child[slot]) return false;
    node = node->child[slot].get();
  }
  return (node->present >> (key & (kMapSize - 1))) & 1;
}

}  // namespace uvmsim
