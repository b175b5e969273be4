#include "gpu/utlb.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(UTlb, StartsEmpty) {
  UTlb tlb(56);
  EXPECT_FALSE(tlb.full());
  EXPECT_EQ(tlb.outstanding_count(), 0u);
  EXPECT_FALSE(tlb.has_outstanding(0));
}

TEST(UTlb, TracksOutstandingEntries) {
  UTlb tlb(56);
  tlb.add_outstanding(10);
  tlb.add_outstanding(20);
  EXPECT_TRUE(tlb.has_outstanding(10));
  EXPECT_TRUE(tlb.has_outstanding(20));
  EXPECT_FALSE(tlb.has_outstanding(30));
  EXPECT_EQ(tlb.outstanding_count(), 2u);
}

TEST(UTlb, FullAtCapacity) {
  // The paper's measured Volta constraint: 56 outstanding faults per µTLB.
  UTlb tlb(56);
  for (PageId p = 0; p < 56; ++p) {
    EXPECT_FALSE(tlb.full());
    tlb.add_outstanding(p);
  }
  EXPECT_TRUE(tlb.full());
  EXPECT_EQ(tlb.outstanding_count(), 56u);
}

TEST(UTlb, ReplayClearsAllEntries) {
  UTlb tlb(4);
  tlb.add_outstanding(1);
  tlb.add_outstanding(2);
  tlb.clear();
  EXPECT_EQ(tlb.outstanding_count(), 0u);
  EXPECT_FALSE(tlb.full());
  EXPECT_FALSE(tlb.has_outstanding(1));
}

TEST(UTlb, CapacityAccessor) {
  UTlb tlb(56);
  EXPECT_EQ(tlb.capacity(), 56u);
}

TEST(UTlb, OutstandingListsEntriesInInsertionOrder) {
  UTlb tlb(56);
  for (const PageId p : {40, 7, 23, 1}) tlb.add_outstanding(p);
  EXPECT_EQ(std::vector<PageId>(tlb.outstanding().begin(),
                                tlb.outstanding().end()),
            (std::vector<PageId>{40, 7, 23, 1}));
}

TEST(UTlb, RefillsAfterReplay) {
  // A replay empties the µTLB; it then takes a full cap of new entries.
  UTlb tlb(4);
  for (PageId p = 0; p < 4; ++p) tlb.add_outstanding(p);
  tlb.clear();
  for (PageId p = 10; p < 14; ++p) tlb.add_outstanding(p);
  EXPECT_TRUE(tlb.full());
  EXPECT_FALSE(tlb.has_outstanding(0));
  EXPECT_TRUE(tlb.has_outstanding(13));
  EXPECT_EQ(tlb.outstanding().front(), 10u);
}

TEST(UTlb, ZeroCapacityIsAlwaysFull) {
  UTlb tlb(0);
  EXPECT_TRUE(tlb.full());
  EXPECT_FALSE(tlb.has_outstanding(0));
  EXPECT_TRUE(tlb.outstanding().empty());
}

}  // namespace
}  // namespace uvmsim
