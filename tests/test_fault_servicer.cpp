#include "uvm/fault_servicer.hpp"

#include <gtest/gtest.h>

#include "interconnect/topology.hpp"

namespace uvmsim {
namespace {

FaultRecord fault(PageId page, AccessType type = AccessType::kRead,
                  std::uint32_t sm = 0) {
  FaultRecord f;
  f.page = page;
  f.access = type;
  f.sm = sm;
  f.utlb = sm / 2;
  return f;
}

/// Test rig bundling the servicer with all its collaborators: one GPU on
/// one PCIe link.
struct Rig {
  explicit Rig(DriverConfig cfg = plain_config(),
               std::uint64_t gpu_bytes = 64 * kVaBlockSize,
               FaultInjector* injector = nullptr)
      : config(cfg),
        topo(TopologyConfig{}, PcieConfig{}),
        gpus{GpuMemCtx(gpu_bytes, EvictPolicy::kLru)},
        memory(gpus[0].memory),
        copy(topo),
        dma(cfg.dma),
        servicer(config, space, topo, gpus, dma, copy, /*num_sms=*/80,
                 injector) {}

  static DriverConfig plain_config() {
    DriverConfig cfg;
    cfg.prefetch_enabled = false;
    cfg.big_page_promotion = false;
    return cfg;
  }

  BatchRecord service(const std::vector<FaultRecord>& faults,
                      SimTime start = 0) {
    return servicer.service(faults, start, next_id++);
  }

  DriverConfig config;
  VaSpace space;
  Topology topo;
  GpuMemCtxs gpus;
  GpuMemory& memory;
  CopyEngine copy;
  DmaMapper dma;
  FaultServicer servicer;
  std::uint32_t next_id = 0;
};

TEST(FaultServicer, SingleFaultMigratesHostBackedPage) {
  Rig rig;
  rig.space.allocate(kVaBlockSize, "a", HostInit::single());
  const auto rec = rig.service({fault(0)});

  EXPECT_EQ(rec.counters.raw_faults, 1u);
  EXPECT_EQ(rec.counters.unique_faults, 1u);
  EXPECT_EQ(rec.counters.pages_migrated, 1u);
  EXPECT_EQ(rec.counters.bytes_h2d, kPageSize);
  EXPECT_EQ(rec.counters.vablocks_touched, 1u);
  EXPECT_EQ(rec.counters.first_touch_vablocks, 1u);
  EXPECT_TRUE(rig.space.is_gpu_resident(0));
  EXPECT_EQ(rig.memory.chunks_in_use(), 1u);
}

TEST(FaultServicer, UnpopulatedPageIsZeroFilledNotMigrated) {
  Rig rig;
  rig.space.allocate(kVaBlockSize, "c", HostInit::none());
  const auto rec = rig.service({fault(0, AccessType::kWrite)});
  EXPECT_EQ(rec.counters.pages_migrated, 0u);
  EXPECT_EQ(rec.counters.bytes_h2d, 0u);
  EXPECT_GE(rec.counters.pages_populated, 1u);
  EXPECT_EQ(rec.counters.write_faults, 1u);
  EXPECT_TRUE(rig.space.is_gpu_resident(0));
}

TEST(FaultServicer, AbortedCopyKeepsHostBackedPagesHome) {
  // Every transfer fails and the retry budget is one attempt, so the copy
  // is abandoned: the host-backed page keeps its only copy at home, while
  // the zero-fill page of the same block is established regardless.
  FaultInjectConfig inject;
  inject.enabled = true;
  inject.transfer_error_prob = 1.0;
  FaultInjector injector(inject);
  DriverConfig cfg = Rig::plain_config();
  cfg.retry.max_attempts = 1;
  Rig rig(cfg, 64 * kVaBlockSize, &injector);
  rig.space.allocate(3 * kPageSize, "a", HostInit::single());  // pages 0-2
  const auto rec = rig.service({fault(0), fault(5)});
  EXPECT_EQ(rec.counters.service_aborts, 1u);
  EXPECT_EQ(rec.counters.pages_migrated, 0u);
  EXPECT_FALSE(rig.space.is_gpu_resident(0));
  EXPECT_TRUE(rig.space.block(0).host_data()[0]);
  EXPECT_TRUE(rig.space.is_gpu_resident(5));
}

TEST(FaultServicer, PrefetchNeverEstablishesRetiredPages) {
  // Promotion pulls all of big page 0 into the target; its retired page
  // stays banned from GPU residency.
  DriverConfig cfg = Rig::plain_config();
  cfg.prefetch_enabled = true;
  cfg.big_page_promotion = true;
  Rig rig(cfg);
  rig.space.allocate(kVaBlockSize, "a", HostInit::none());
  rig.space.block(0).retire_page(3);
  rig.service({fault(0)});
  for (PageId p = 0; p < kPagesPerBigPage; ++p) {
    EXPECT_EQ(rig.space.is_gpu_resident(p), p != 3) << "page " << p;
  }
}

TEST(FaultServicer, WholeBlockUnmappedOnFirstGpuTouch) {
  // §4.4: unmap_mapping_range covers every CPU-resident page of the
  // VABlock, not just the faulted one.
  Rig rig;
  rig.space.allocate(kVaBlockSize, "a", HostInit::single());
  const auto rec = rig.service({fault(0)});
  EXPECT_EQ(rec.counters.unmap_calls, 1u);
  EXPECT_EQ(rec.counters.pages_unmapped, kPagesPerVaBlock);
  EXPECT_GT(rec.phases.unmap_ns, 0u);
  EXPECT_EQ(rig.space.block(0).cpu_mapped_count(), 0u);
}

TEST(FaultServicer, UnmapChargedOnlyOncePerBlock) {
  Rig rig;
  rig.space.allocate(kVaBlockSize, "a", HostInit::single());
  rig.service({fault(0)});
  const auto second = rig.service({fault(1)});
  EXPECT_EQ(second.counters.unmap_calls, 0u);
  EXPECT_EQ(second.phases.unmap_ns, 0u);
}

TEST(FaultServicer, DmaMappingIsCompulsoryAndOnce) {
  // Fig 14: every page of a block is DMA-mapped at first touch; later
  // batches pay nothing.
  Rig rig;
  rig.space.allocate(kVaBlockSize, "a", HostInit::single());
  const auto first = rig.service({fault(0)});
  EXPECT_EQ(first.counters.dma_pages_mapped, kPagesPerVaBlock);
  EXPECT_GT(first.phases.dma_map_ns, 0u);
  const auto second = rig.service({fault(1)});
  EXPECT_EQ(second.counters.dma_pages_mapped, 0u);
  EXPECT_EQ(second.phases.dma_map_ns, 0u);
}

TEST(FaultServicer, PhaseSumEqualsDuration) {
  Rig rig;
  rig.space.allocate(4 * kVaBlockSize, "a", HostInit::single());
  const auto rec = rig.service(
      {fault(0), fault(kPagesPerVaBlock), fault(3 * kPagesPerVaBlock)}, 1000);
  EXPECT_EQ(rec.start_ns, 1000u);
  EXPECT_EQ(rec.duration_ns(), rec.phases.sum());
}

TEST(FaultServicer, DuplicateCountsFlowIntoRecord) {
  Rig rig;
  rig.space.allocate(kVaBlockSize, "a", HostInit::single());
  auto d1 = fault(0, AccessType::kRead, 0);
  auto d2 = fault(0, AccessType::kRead, 0);   // same utlb -> type 1
  auto d3 = fault(0, AccessType::kRead, 10);  // utlb 5 -> type 2
  const auto rec = rig.service({d1, d2, d3});
  EXPECT_EQ(rec.counters.raw_faults, 3u);
  EXPECT_EQ(rec.counters.unique_faults, 1u);
  EXPECT_EQ(rec.counters.dup_same_utlb, 1u);
  EXPECT_EQ(rec.counters.dup_cross_utlb, 1u);
  EXPECT_EQ(rec.counters.pages_migrated, 1u);  // duplicates migrate nothing
}

TEST(FaultServicer, EvictionOnFullMemory) {
  Rig rig(Rig::plain_config(), /*gpu_bytes=*/1 * kVaBlockSize);
  rig.space.allocate(2 * kVaBlockSize, "a", HostInit::single());
  rig.service({fault(0)});
  EXPECT_EQ(rig.memory.free_chunks(), 0u);

  const auto rec = rig.service({fault(kPagesPerVaBlock)});
  EXPECT_EQ(rec.counters.evictions, 1u);
  EXPECT_GT(rec.phases.eviction_ns, 0u);
  EXPECT_GT(rec.counters.bytes_d2h, 0u);
  EXPECT_FALSE(rig.space.is_gpu_resident(0));  // block 0 was the victim
  EXPECT_TRUE(rig.space.is_gpu_resident(kPagesPerVaBlock));
  ASSERT_EQ(rec.evicted_blocks.size(), 1u);
  EXPECT_EQ(rec.evicted_blocks[0], 0u);
}

TEST(FaultServicer, RePageInSkipsUnmapCost) {
  // Fig 13's "levels": a block that was evicted (and never CPU-remapped)
  // pays no unmap_mapping_range cost when paged back in.
  Rig rig(Rig::plain_config(), 1 * kVaBlockSize);
  rig.space.allocate(2 * kVaBlockSize, "a", HostInit::single());
  const auto first = rig.service({fault(0)});
  EXPECT_GT(first.phases.unmap_ns, 0u);
  rig.service({fault(kPagesPerVaBlock)});  // evicts block 0
  const auto back = rig.service({fault(0)});  // evicts block 1, reloads 0
  EXPECT_EQ(back.counters.evictions, 1u);
  EXPECT_EQ(back.phases.unmap_ns, 0u);       // the lower level
  EXPECT_GT(back.counters.pages_migrated, 0u);  // data comes from host
}

TEST(FaultServicer, EvictedDataMigratesBackFromHost) {
  Rig rig(Rig::plain_config(), 1 * kVaBlockSize);
  rig.space.allocate(2 * kVaBlockSize, "a", HostInit::single());
  rig.service({fault(0)});
  rig.service({fault(kPagesPerVaBlock)});
  const auto back = rig.service({fault(0)});
  // The page's authoritative copy was written back to host frames at
  // eviction, so the reload is a migration (bytes_h2d), not population.
  EXPECT_EQ(back.counters.bytes_h2d, kPageSize);
}

TEST(FaultServicer, PrefetchExpandsMigration) {
  DriverConfig cfg;  // prefetch + promotion on by default
  Rig rig(cfg);
  rig.space.allocate(kVaBlockSize, "a", HostInit::single());
  const auto rec = rig.service({fault(0)});
  EXPECT_GT(rec.counters.pages_prefetched, 0u);
  EXPECT_GT(rec.counters.pages_migrated, 1u);
  // 64 KB promotion at minimum.
  EXPECT_GE(rec.counters.pages_migrated, kPagesPerBigPage);
}

TEST(FaultServicer, FaultOnResidentPageIsCheap) {
  Rig rig;
  rig.space.allocate(kVaBlockSize, "a", HostInit::single());
  rig.service({fault(0)});
  const auto rec = rig.service({fault(0)});  // stale/replayed fault
  EXPECT_EQ(rec.counters.pages_migrated, 0u);
  EXPECT_EQ(rec.counters.pages_populated, 0u);
  EXPECT_EQ(rec.counters.bytes_h2d, 0u);
}

TEST(FaultServicer, PerSmAndVaBlockDetailRecorded) {
  Rig rig;
  rig.space.allocate(2 * kVaBlockSize, "a", HostInit::single());
  const auto rec = rig.service(
      {fault(0, AccessType::kRead, 3), fault(1, AccessType::kRead, 3),
       fault(kPagesPerVaBlock, AccessType::kRead, 40)});
  ASSERT_EQ(rec.faults_per_sm.size(), 80u);
  EXPECT_EQ(rec.faults_per_sm[3], 2u);
  EXPECT_EQ(rec.faults_per_sm[40], 1u);
  ASSERT_EQ(rec.vablock_faults.size(), 2u);
  EXPECT_EQ(rec.vablock_faults[0].second, 2u);
  EXPECT_EQ(rec.vablock_faults[1].second, 1u);
}

TEST(FaultServicer, TouchKeepsHotBlocksResident) {
  // LRU integration: re-faulting block 0 right before block 2 needs a
  // chunk makes block 1 the victim.
  Rig rig(Rig::plain_config(), 2 * kVaBlockSize);
  rig.space.allocate(3 * kVaBlockSize, "a", HostInit::single());
  rig.service({fault(0)});
  rig.service({fault(kPagesPerVaBlock)});
  rig.service({fault(1)});  // touch block 0 again
  const auto rec = rig.service({fault(2 * kPagesPerVaBlock)});
  ASSERT_EQ(rec.evicted_blocks.size(), 1u);
  EXPECT_EQ(rec.evicted_blocks[0], 1u);
  EXPECT_TRUE(rig.space.is_gpu_resident(0));
}

TEST(FaultServicer, EmptyBatchStillPaysFixedCosts) {
  Rig rig;
  const auto rec = rig.service({});
  EXPECT_EQ(rec.counters.raw_faults, 0u);
  EXPECT_GE(rec.duration_ns(),
            rig.config.batch_fixed_ns + rig.config.replay_ns);
}

}  // namespace
}  // namespace uvmsim
