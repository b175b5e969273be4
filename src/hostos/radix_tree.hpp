// Linux-style radix tree (the pre-xarray `lib/radix-tree.c` design).
//
// UVM stores reverse DMA address mappings in exactly this structure; the
// paper (Section 5.2) traces the high-cost "GPU VABlock state init" batches
// to time spent inserting into it, with spikes attributed to tree growth.
// We implement the real data structure — 6-bit fanout, height grows from
// the root as the key space widens — and count node allocations per insert
// so the driver can charge growth where it actually happens. The tree
// records which keys are present and nothing else: the cost model reads
// only its shape.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

namespace uvmsim {

class RadixTree {
 public:
  static constexpr unsigned kMapShift = 6;               // bits per level
  static constexpr unsigned kMapSize = 1u << kMapShift;  // 64 slots/node

  RadixTree() = default;

  /// Outcome of an insert, including how many tree nodes had to be
  /// allocated (root growth + path fill). The caller converts this into
  /// simulated time.
  struct InsertResult {
    bool inserted = false;       // false if the key was already present
    unsigned nodes_allocated = 0;
    bool grew_height = false;    // at least one root-growth step occurred
  };

  /// Record `key`. Inserting a present key allocates nothing and grows
  /// nothing.
  InsertResult insert(std::uint64_t key);
  bool contains(std::uint64_t key) const;

  std::uint64_t size() const noexcept { return size_; }
  std::uint64_t node_count() const noexcept { return node_count_; }
  unsigned height() const noexcept { return height_; }

 private:
  struct Node {
    std::array<std::unique_ptr<Node>, kMapSize> child{};
    std::uint64_t present = 0;  // leaf: bit s set = slot s holds a key
  };

  /// Largest key representable by a tree of the given height.
  static std::uint64_t max_key_for_height(unsigned height) noexcept;

  std::unique_ptr<Node> make_node(InsertResult& result);

  std::unique_ptr<Node> root_;
  unsigned height_ = 0;  // 0 = empty; height h covers keys < 64^h
  std::uint64_t size_ = 0;
  std::uint64_t node_count_ = 0;
};

}  // namespace uvmsim
