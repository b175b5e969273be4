// Differential tests for the fault path's fixed-storage structures: the
// µTLB, the fault deduper and the VABlock evictor, each driven by seeded
// random operation sequences beside a reference built from standard
// containers (the algorithm each structure replaced).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "gpu/utlb.hpp"
#include "uvm/dedup.hpp"
#include "uvm/eviction.hpp"

namespace uvmsim {
namespace {

// ---- µTLB -------------------------------------------------------------

/// Pages that share a few home slots of a `cap`-entry µTLB's index under
/// its multiplicative hash, so insertions probe past occupied slots.
std::vector<PageId> colliding_pages(std::uint32_t cap) {
  const std::size_t slots =
      std::bit_ceil(std::max<std::size_t>(2 * std::size_t{cap}, 2));
  const int shift = 64 - std::countr_zero(slots);
  std::vector<PageId> pages;
  for (PageId p = 0; pages.size() < 3 * std::size_t{cap} + 8; ++p) {
    const auto home =
        static_cast<std::size_t>((p * 0x9E3779B97F4A7C15ULL) >> shift);
    if (home % 8 == 0) pages.push_back(p);  // one home in eight
  }
  return pages;
}

TEST(UTlbDifferential, MatchesSetAndInsertionOrderUnderRandomAddsAndClears) {
  for (const std::uint32_t cap : {1u, 4u, 56u, 100u}) {
    const std::vector<PageId> colliding = colliding_pages(cap);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(testing::Message() << "cap " << cap << " seed " << seed);
      Xoshiro256 rng(seed * 7919 + cap);
      UTlb tlb(cap);
      std::unordered_set<PageId> ref_set;
      std::vector<PageId> ref_order;
      for (int step = 0; step < 2000; ++step) {
        if (rng.bernoulli(0.02)) {
          tlb.clear();
          ref_set.clear();
          ref_order.clear();
        } else {
          const PageId page = rng.bernoulli(0.5)
                                  ? colliding[rng.uniform(colliding.size())]
                                  : rng.uniform(4 * std::uint64_t{cap} + 16);
          ASSERT_EQ(tlb.has_outstanding(page), ref_set.contains(page));
          if (!ref_set.contains(page) && ref_set.size() < cap) {
            ASSERT_FALSE(tlb.full());
            tlb.add_outstanding(page);
            ref_set.insert(page);
            ref_order.push_back(page);
          }
        }
        ASSERT_EQ(tlb.full(), ref_set.size() >= cap);
        ASSERT_EQ(tlb.outstanding_count(), ref_set.size());
        ASSERT_TRUE(std::ranges::equal(tlb.outstanding(), ref_order));
        for (const PageId probe : colliding) {
          ASSERT_EQ(tlb.has_outstanding(probe), ref_set.contains(probe));
        }
      }
    }
  }
}

// ---- Dedup --------------------------------------------------------------

/// The per-batch hash-map algorithm the deduper replaced.
DedupResult reference_dedup(const std::vector<FaultRecord>& batch) {
  DedupResult out;
  struct Seen {
    std::size_t unique_index;
    std::uint64_t utlb_mask;
  };
  std::unordered_map<PageId, Seen> seen;
  for (const FaultRecord& fault : batch) {
    const std::uint64_t utlb_bit = 1ULL << (fault.utlb % 64);
    auto [it, inserted] =
        seen.try_emplace(fault.page, Seen{out.unique.size(), utlb_bit});
    if (inserted) {
      out.unique.push_back(fault);
      continue;
    }
    if (it->second.utlb_mask & utlb_bit) {
      ++out.dup_same_utlb;
    } else {
      ++out.dup_cross_utlb;
      it->second.utlb_mask |= utlb_bit;
    }
    if (fault.access == AccessType::kWrite) {
      out.unique[it->second.unique_index].access = AccessType::kWrite;
    }
  }
  return out;
}

void expect_same_record(const FaultRecord& a, const FaultRecord& b) {
  EXPECT_EQ(a.page, b.page);
  EXPECT_EQ(a.access, b.access);
  EXPECT_EQ(a.sm, b.sm);
  EXPECT_EQ(a.utlb, b.utlb);
  EXPECT_EQ(a.block, b.block);
  EXPECT_EQ(a.gpu, b.gpu);
  EXPECT_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.is_duplicate_emission, b.is_duplicate_emission);
}

TEST(DedupDifferential, ReusedDeduperMatchesPerBatchMapAlgorithm) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed);
    FaultDeduper deduper;  // one instance: stamps and slots are reused
    for (int b = 0; b < 60; ++b) {
      // Mostly small batches, now and then an empty or a 4096-record one,
      // so the table grows mid-sequence and shrinking batches reuse it.
      const std::size_t size = rng.bernoulli(0.1)   ? 0
                               : rng.bernoulli(0.1) ? 4096
                                                    : rng.uniform(600);
      const std::uint64_t page_range = 1 + rng.uniform(256);
      std::vector<FaultRecord> batch(size);
      for (FaultRecord& f : batch) {
        f.page = 1000 + rng.uniform(page_range);
        const auto access = rng.uniform(3);
        f.access = access == 0   ? AccessType::kRead
                   : access == 1 ? AccessType::kWrite
                                 : AccessType::kPrefetch;
        f.sm = static_cast<std::uint32_t>(rng.uniform(160));
        f.utlb = f.sm / 2;  // past 64: the mask folds µTLB ids
        f.block = static_cast<std::uint32_t>(rng.uniform(1000));
        f.gpu = static_cast<std::uint32_t>(rng.uniform(2));
        f.timestamp = rng.uniform(1'000'000);
        f.is_duplicate_emission = rng.bernoulli(0.3);
      }
      const DedupResult want = reference_dedup(batch);
      const DedupResult& got = deduper.dedup(batch);
      ASSERT_EQ(got.unique.size(), want.unique.size()) << "batch " << b;
      for (std::size_t i = 0; i < want.unique.size(); ++i) {
        expect_same_record(got.unique[i], want.unique[i]);
      }
      EXPECT_EQ(got.dup_same_utlb, want.dup_same_utlb) << "batch " << b;
      EXPECT_EQ(got.dup_cross_utlb, want.dup_cross_utlb) << "batch " << b;
    }
  }
}

// ---- Evictor ------------------------------------------------------------

/// The std::list + hash-map evictor the intrusive list replaced.
class ReferenceEvictor {
 public:
  explicit ReferenceEvictor(EvictPolicy policy) : policy_(policy) {}

  void touch(VaBlockId block) {
    auto it = index_.find(block);
    if (it != index_.end()) {
      if (policy_ == EvictPolicy::kFifo) return;
      order_.erase(it->second);
      index_.erase(it);
    }
    order_.push_back(block);
    index_.emplace(block, std::prev(order_.end()));
  }
  void remove(VaBlockId block) {
    auto it = index_.find(block);
    if (it == index_.end()) return;
    order_.erase(it->second);
    index_.erase(it);
  }
  std::optional<VaBlockId> pick_victim(VaBlockId protect) const {
    for (const VaBlockId b : order_) {
      if (b != protect) return b;
    }
    return std::nullopt;
  }
  std::optional<VaBlockId> pick_victim(
      VaBlockId protect,
      const std::function<bool(VaBlockId)>& evictable) const {
    std::optional<VaBlockId> fallback;
    for (const VaBlockId b : order_) {
      if (b == protect) continue;
      if (evictable(b)) return b;
      if (!fallback) fallback = b;
    }
    return fallback;
  }
  bool tracks(VaBlockId block) const { return index_.contains(block); }
  std::size_t tracked() const { return order_.size(); }

 private:
  EvictPolicy policy_;
  std::list<VaBlockId> order_;
  std::unordered_map<VaBlockId, std::list<VaBlockId>::iterator> index_;
};

TEST(EvictorDifferential, MatchesListEvictorUnderRandomOperations) {
  for (const EvictPolicy policy : {EvictPolicy::kLru, EvictPolicy::kFifo}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << (policy == EvictPolicy::kLru ? "LRU" : "FIFO")
                   << " seed " << seed);
      Xoshiro256 rng(seed * 104729);
      Evictor ev(policy);
      ReferenceEvictor ref(policy);
      const std::uint64_t blocks = 1 + rng.uniform(64);
      // A shield over a random third of the ids, redrawn now and then.
      std::vector<bool> shielded(blocks);
      const auto evictable = [&](VaBlockId b) { return !shielded[b]; };
      for (int step = 0; step < 3000; ++step) {
        const VaBlockId block = rng.uniform(blocks);
        switch (rng.uniform(5)) {
          case 0:
          case 1:
            ev.touch(block);
            ref.touch(block);
            break;
          case 2:
            ev.remove(block);
            ref.remove(block);
            break;
          case 3:
            ASSERT_EQ(ev.pick_victim(block), ref.pick_victim(block));
            break;
          default:
            if (rng.bernoulli(0.05)) {
              for (std::size_t b = 0; b < blocks; ++b) {
                shielded[b] = rng.bernoulli(0.33);
              }
            }
            ASSERT_EQ(ev.pick_victim(block, evictable),
                      ref.pick_victim(block, evictable));
            break;
        }
        ASSERT_EQ(ev.tracks(block), ref.tracks(block));
        ASSERT_EQ(ev.tracked(), ref.tracked());
      }
      // Drain in victim order: the whole order must agree, not its head.
      while (const auto victim = ref.pick_victim(blocks)) {
        ASSERT_EQ(ev.pick_victim(blocks), victim);
        ev.remove(*victim);
        ref.remove(*victim);
      }
      EXPECT_FALSE(ev.pick_victim(blocks).has_value());
      EXPECT_EQ(ev.tracked(), 0u);
    }
  }
}

}  // namespace
}  // namespace uvmsim
