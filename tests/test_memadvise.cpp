// cudaMemAdvise-style placement: preferred-location-host pages resolve
// remotely over DMA mappings instead of faulting and migrating — the
// remote-mapping capability the paper's related work (EMOGI et al.)
// applies to irregular workloads.
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace uvmsim {
namespace {

WorkloadSpec pinned(WorkloadSpec spec) {
  for (auto& alloc : spec.allocs) {
    alloc.advise = MemAdvise::kPreferredLocationHost;
  }
  return spec;
}

TEST(MemAdvise, VaSpaceResolvesAdvicePerAllocation) {
  VaSpace space;
  space.allocate(kVaBlockSize, "a", HostInit::single());
  space.allocate(kVaBlockSize, "b", HostInit::single(),
                 MemAdvise::kPreferredLocationHost);
  EXPECT_EQ(space.advise_of(0), MemAdvise::kNone);
  EXPECT_EQ(space.advise_of(kPagesPerVaBlock),
            MemAdvise::kPreferredLocationHost);
  // Pages outside any allocation default to kNone.
  EXPECT_EQ(space.advise_of(100 * kPagesPerVaBlock), MemAdvise::kNone);
}

TEST(MemAdvise, AdviceMatchesTheVmaOfEveryPageIncludingBlockTails) {
  // Allocations end mid-block; the rest of their last block belongs to no
  // allocation and so carries no advice.
  VaSpace space;
  space.allocate(kVaBlockSize + 3 * kPageSize, "a", HostInit::none(),
                 MemAdvise::kPreferredLocationHost);
  space.allocate(5 * kPageSize, "b", HostInit::single());
  space.allocate(2 * kVaBlockSize, "c", HostInit::none(),
                 MemAdvise::kPreferredLocationHost);
  space.allocate(kVaBlockSize - kPageSize, "d", HostInit::none(),
                 MemAdvise::kPreferredLocationHost);
  EXPECT_EQ(space.advise_of(kPagesPerVaBlock + 2),
            MemAdvise::kPreferredLocationHost);
  EXPECT_EQ(space.advise_of(kPagesPerVaBlock + 3), MemAdvise::kNone);
  for (PageId page = 0; page < space.total_pages() + kPagesPerVaBlock;
       ++page) {
    MemAdvise want = MemAdvise::kNone;
    for (const AllocationInfo& alloc : space.allocations()) {
      if (alloc.first_page <= page && page < alloc.first_page + alloc.pages) {
        want = alloc.advise;
      }
    }
    ASSERT_EQ(space.advise_of(page), want) << "page " << page;
  }
}

TEST(MemAdvise, DriverClassifiesPinnedPagesAsRemote) {
  DriverConfig cfg;
  UvmDriver driver(cfg, 256ULL << 20, 80);
  driver.managed_alloc(kVaBlockSize, "pinned", HostInit::single(),
                       MemAdvise::kPreferredLocationHost);
  driver.managed_alloc(kVaBlockSize, "managed", HostInit::single());
  EXPECT_EQ(driver.classify(0), ResidencyOracle::PageLocation::kRemoteMapped);
  EXPECT_EQ(driver.classify(kPagesPerVaBlock),
            ResidencyOracle::PageLocation::kFaultRequired);
}

TEST(MemAdvise, PinnedWorkloadGeneratesNoFaults) {
  SystemConfig cfg = presets::scaled_titan_v(256);
  System system(cfg);
  const auto result = system.run(pinned(make_vecadd_coalesced(1 << 14)));
  EXPECT_EQ(result.total_faults, 0u);
  EXPECT_EQ(result.log.size(), 0u);
  EXPECT_GT(result.remote_accesses, 0u);
  EXPECT_EQ(result.bytes_h2d, 0u);
  // Nothing migrated: GPU residency untouched.
  EXPECT_EQ(system.driver().va_space().gpu_resident_pages(), 0u);
}

TEST(MemAdvise, MixedAllocationsFaultOnlyOnManagedPages) {
  SystemConfig cfg = presets::scaled_titan_v(256);
  cfg.driver.prefetch_enabled = false;
  auto spec = make_vecadd_coalesced(1 << 14);
  spec.allocs[0].advise = MemAdvise::kPreferredLocationHost;  // a pinned
  System system(cfg);
  const auto result = system.run(spec);
  EXPECT_GT(result.total_faults, 0u);
  EXPECT_GT(result.remote_accesses, 0u);
  // Pinned allocation's VABlock never became resident.
  EXPECT_FALSE(system.driver().va_space().is_gpu_resident(0));
}

TEST(MemAdvise, RemoteAccessesSlowTheKernelButSkipTheDriver) {
  // Sequential streaming: migration (dense, prefetch-friendly) should
  // beat remote mapping; the pinned run trades driver time for per-access
  // interconnect latency.
  const auto spec = make_stream_triad(1 << 17);
  System migrate_system(presets::scaled_titan_v(256));
  const auto migrate = migrate_system.run(spec);
  System pinned_system(presets::scaled_titan_v(256));
  const auto remote = pinned_system.run(pinned(spec));

  EXPECT_EQ(remote.log.size(), 0u);
  EXPECT_GT(remote.kernel_time_ns, 0u);
  EXPECT_LT(migrate.kernel_time_ns, remote.kernel_time_ns)
      << "dense streaming should favour migration over remote access";
}

TEST(MemAdvise, SparseRandomAccessFavoursRemoteMapping) {
  // The EMOGI argument: touching a few pages scattered over a huge
  // allocation wastes migration effort; remote access wins.
  const auto spec = make_random(1ULL << 30, 0x1234, 2, 40, 8);
  System migrate_system(presets::scaled_titan_v(2048));
  const auto migrate = migrate_system.run(spec);
  System pinned_system(presets::scaled_titan_v(2048));
  const auto remote = pinned_system.run(pinned(spec));

  EXPECT_GT(migrate.log.size(), 0u);
  EXPECT_LT(remote.kernel_time_ns, migrate.kernel_time_ns)
      << "sparse random access should favour remote mapping";
}

TEST(MemAdvise, PrefetchNeverPullsPinnedPages) {
  SystemConfig cfg = presets::scaled_titan_v(256);
  System system(cfg);
  auto spec = make_vecadd_prefetch(64);
  for (auto& alloc : spec.allocs) {
    alloc.advise = MemAdvise::kPreferredLocationHost;
  }
  const auto result = system.run(spec);
  EXPECT_EQ(result.total_faults, 0u);
  EXPECT_EQ(system.driver().va_space().gpu_resident_pages(), 0u);
}

}  // namespace
}  // namespace uvmsim
