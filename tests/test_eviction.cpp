#include "uvm/eviction.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(Evictor, EmptyHasNoVictim) {
  Evictor ev;
  EXPECT_FALSE(ev.pick_victim(0).has_value());
  EXPECT_EQ(ev.tracked(), 0u);
}

TEST(Evictor, LruPicksLeastRecentlyTouched) {
  Evictor ev(EvictPolicy::kLru);
  ev.touch(1);
  ev.touch(2);
  ev.touch(3);
  ev.touch(1);  // 1 becomes most recent; LRU order is now 2, 3, 1
  ASSERT_TRUE(ev.pick_victim(99).has_value());
  EXPECT_EQ(*ev.pick_victim(99), 2u);
}

TEST(Evictor, ProtectSkipsServicedBlock) {
  Evictor ev;
  ev.touch(7);
  ev.touch(8);
  EXPECT_EQ(*ev.pick_victim(7), 8u);
  ev.remove(8);
  EXPECT_FALSE(ev.pick_victim(7).has_value());  // only the protected left
}

TEST(Evictor, RemoveUntracksBlock) {
  Evictor ev;
  ev.touch(5);
  EXPECT_TRUE(ev.tracks(5));
  ev.remove(5);
  EXPECT_FALSE(ev.tracks(5));
  ev.remove(5);  // idempotent
  EXPECT_EQ(ev.tracked(), 0u);
}

TEST(Evictor, FifoIgnoresRetouches) {
  // The paper: with no page-hit information, "LRU" degrades toward
  // earliest-allocated; FIFO models that exactly and serves as ablation.
  Evictor ev(EvictPolicy::kFifo);
  ev.touch(1);
  ev.touch(2);
  ev.touch(1);  // no effect under FIFO
  EXPECT_EQ(*ev.pick_victim(99), 1u);
}

TEST(Evictor, LruFullCycle) {
  Evictor ev(EvictPolicy::kLru);
  for (VaBlockId b = 0; b < 10; ++b) ev.touch(b);
  // Evict in order when never re-touched: 0, 1, 2, ...
  for (VaBlockId b = 0; b < 9; ++b) {
    const auto victim = ev.pick_victim(9);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, b);
    ev.remove(*victim);
  }
  EXPECT_FALSE(ev.pick_victim(9).has_value());
}

TEST(Evictor, PolicyAccessor) {
  EXPECT_EQ(Evictor(EvictPolicy::kFifo).policy(), EvictPolicy::kFifo);
  EXPECT_EQ(Evictor().policy(), EvictPolicy::kLru);
}

}  // namespace
}  // namespace uvmsim
