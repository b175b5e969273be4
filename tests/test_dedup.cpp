#include "uvm/dedup.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

FaultRecord fault(PageId page, std::uint32_t utlb,
                  AccessType type = AccessType::kRead) {
  FaultRecord f;
  f.page = page;
  f.utlb = utlb;
  f.access = type;
  return f;
}

TEST(Dedup, NoDuplicatesPassThrough) {
  const auto r = dedup_faults({fault(1, 0), fault(2, 0), fault(3, 1)});
  EXPECT_EQ(r.unique.size(), 3u);
  EXPECT_EQ(r.dup_same_utlb, 0u);
  EXPECT_EQ(r.dup_cross_utlb, 0u);
}

TEST(Dedup, SameUtlbDuplicateIsType1) {
  const auto r = dedup_faults({fault(1, 0), fault(1, 0)});
  EXPECT_EQ(r.unique.size(), 1u);
  EXPECT_EQ(r.dup_same_utlb, 1u);
  EXPECT_EQ(r.dup_cross_utlb, 0u);
}

TEST(Dedup, CrossUtlbDuplicateIsType2) {
  const auto r = dedup_faults({fault(1, 0), fault(1, 1)});
  EXPECT_EQ(r.unique.size(), 1u);
  EXPECT_EQ(r.dup_same_utlb, 0u);
  EXPECT_EQ(r.dup_cross_utlb, 1u);
}

TEST(Dedup, RepeatFromKnownUtlbBecomesType1) {
  // Once µTLB 1 has reported the page, its further repeats are type 1 —
  // the paper notes some type-2 sharing "falls into" type 1.
  const auto r =
      dedup_faults({fault(1, 0), fault(1, 1), fault(1, 1), fault(1, 0)});
  EXPECT_EQ(r.unique.size(), 1u);
  EXPECT_EQ(r.dup_cross_utlb, 1u);
  EXPECT_EQ(r.dup_same_utlb, 2u);
}

TEST(Dedup, FirstArrivalOrderPreserved) {
  const auto r = dedup_faults(
      {fault(5, 0), fault(3, 0), fault(5, 1), fault(9, 0), fault(3, 0)});
  ASSERT_EQ(r.unique.size(), 3u);
  EXPECT_EQ(r.unique[0].page, 5u);
  EXPECT_EQ(r.unique[1].page, 3u);
  EXPECT_EQ(r.unique[2].page, 9u);
}

TEST(Dedup, WriteUpgradesSurvivingRecord) {
  const auto r = dedup_faults(
      {fault(1, 0, AccessType::kRead), fault(1, 1, AccessType::kWrite)});
  ASSERT_EQ(r.unique.size(), 1u);
  EXPECT_EQ(r.unique[0].access, AccessType::kWrite);
}

TEST(Dedup, WriteNotDowngradedByLaterRead) {
  const auto r = dedup_faults(
      {fault(1, 0, AccessType::kWrite), fault(1, 0, AccessType::kRead)});
  ASSERT_EQ(r.unique.size(), 1u);
  EXPECT_EQ(r.unique[0].access, AccessType::kWrite);
}

TEST(Dedup, EmptyBatch) {
  const auto r = dedup_faults({});
  EXPECT_TRUE(r.unique.empty());
  EXPECT_EQ(r.dup_same_utlb + r.dup_cross_utlb, 0u);
}

TEST(Dedup, CountsAreConserved) {
  // raw == unique + type1 + type2, always.
  std::vector<FaultRecord> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(fault(i % 7, static_cast<std::uint32_t>(i % 3)));
  }
  const auto r = dedup_faults(batch);
  EXPECT_EQ(batch.size(),
            r.unique.size() + r.dup_same_utlb + r.dup_cross_utlb);
}

}  // namespace
}  // namespace uvmsim
