#include "gpu/gpu_engine.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "workloads/workload.hpp"

namespace uvmsim {
namespace {

/// Residency oracle backed by a plain set (the driver's role in tests).
struct SetOracle : ResidencyOracle {
  std::unordered_set<PageId> resident;
  bool is_resident_on_gpu(PageId page) const override {
    return resident.contains(page);
  }
};

GpuConfig quiet_config() {
  GpuConfig cfg;
  cfg.dup_same_utlb_prob = 0.0;
  cfg.fault_arrival_jitter_ns = 0;
  return cfg;
}

/// Drain-service-replay until the kernel completes; returns every fault in
/// arrival order. Mimics the System loop with an instant driver.
std::vector<FaultRecord> run_to_completion(GpuEngine& gpu, SetOracle& oracle,
                                           std::size_t batch_size = 256) {
  std::vector<FaultRecord> all;
  int guard = 0;
  gpu.generate(0, oracle);
  while (!gpu.all_done() || !gpu.fault_buffer().empty()) {
    if (++guard > 100000) {
      ADD_FAILURE() << "engine did not converge";
      break;
    }
    if (gpu.fault_buffer().empty()) {
      gpu.force_token_refill();
      gpu.on_replay();
      gpu.generate(0, oracle);
      if (gpu.fault_buffer().empty()) break;
    }
    auto batch = gpu.fault_buffer().drain(batch_size);
    for (const auto& f : batch) {
      oracle.resident.insert(f.page);
      all.push_back(f);
    }
    gpu.fault_buffer().flush();
    gpu.on_replay();
    gpu.generate(0, oracle);
  }
  return all;
}

TEST(GpuEngine, FirstWindowCappedByUtlbLimit) {
  // Fig 3: a single warp's first fault window stops at the 56-entry µTLB
  // cap even though 64 reads are ready to issue.
  GpuEngine gpu(quiet_config(), 1);
  const auto spec = make_vecadd_paged();
  gpu.launch(spec.kernel);
  SetOracle oracle;
  const auto result = gpu.generate(0, oracle);
  EXPECT_EQ(result.faults_pushed, 56u);
  EXPECT_EQ(gpu.fault_buffer().size(), 56u);
}

TEST(GpuEngine, WritesNeverPrecedeTheirStatementsReads) {
  // Listing 2 semantics: c[pageN] cannot fault until every a/b read of
  // statement N completed. Vector c occupies the third allocation, i.e.
  // pages >= 2 * blocks_per_vector in the paged layout.
  GpuEngine gpu(quiet_config(), 1);
  const auto spec = make_vecadd_paged();
  gpu.launch(spec.kernel);
  SetOracle oracle;
  std::vector<FaultRecord> all;
  all.reserve(300);
  for (const auto& f : run_to_completion(gpu, oracle)) all.push_back(f);
  ASSERT_FALSE(all.empty());

  // Identify allocations by VABlock: a = block 0, b = block 1, c = block 2
  // (each vector is 96 pages, padded to one 512-page VABlock).
  std::size_t reads_seen = 0;
  bool write_seen = false;
  for (const auto& f : all) {
    if (va_block_of(f.page) == 2) {
      write_seen = true;
      // The first write statement requires its 64 reads (32 a + 32 b).
      EXPECT_GE(reads_seen, 64u);
    } else if (!write_seen) {
      ++reads_seen;
    }
  }
  EXPECT_TRUE(write_seen);
}

TEST(GpuEngine, AllAccessesEventuallyServiced) {
  GpuEngine gpu(quiet_config(), 1);
  const auto spec = make_vecadd_paged();
  gpu.launch(spec.kernel);
  SetOracle oracle;
  const auto all = run_to_completion(gpu, oracle);
  EXPECT_TRUE(gpu.all_done());
  // 3 statements x (64 reads + 32 writes) = 288 distinct pages.
  EXPECT_EQ(oracle.resident.size(), 288u);
  EXPECT_GE(all.size(), 288u);
}

TEST(GpuEngine, PrefetchBypassesUtlbAndThrottle) {
  // Fig 5: prefetch instructions are fire-and-forget; one warp can flood
  // the buffer far past the 56-entry µTLB cap in a single window.
  GpuEngine gpu(quiet_config(), 1);
  const auto spec = make_vecadd_prefetch(128);
  gpu.launch(spec.kernel);
  SetOracle oracle;
  const auto result = gpu.generate(0, oracle);
  // All 384 prefetch faults land in one window (plus up to a µTLB's worth
  // of demand faults from the groups that follow the prefetch).
  EXPECT_GE(result.faults_pushed, 3 * 128u);
  std::size_t prefetch_faults = 0;
  for (const auto& f : gpu.fault_buffer().drain(4096)) {
    if (f.access == AccessType::kPrefetch) ++prefetch_faults;
  }
  EXPECT_EQ(prefetch_faults, 3 * 128u);
}

TEST(GpuEngine, DroppedPrefetchFaultsAreNotReissued) {
  GpuEngine gpu(quiet_config(), 1);
  const auto spec = make_vecadd_prefetch(128);
  gpu.launch(spec.kernel);
  SetOracle oracle;
  gpu.generate(0, oracle);
  // Service only 100 of the prefetch faults, flush the rest.
  auto batch = gpu.fault_buffer().drain(100);
  for (const auto& f : batch) oracle.resident.insert(f.page);
  gpu.fault_buffer().flush();
  gpu.on_replay();
  const auto result = gpu.generate(0, oracle);
  // New faults now come only from the demand accesses of un-prefetched
  // pages (emitted under the normal limits), never a prefetch re-issue.
  const auto newly = gpu.fault_buffer().drain(4096);
  for (const auto& f : newly) {
    EXPECT_NE(f.access, AccessType::kPrefetch);
  }
  (void)result;
}

TEST(GpuEngine, PostReplayWindowsAreThrottled) {
  // "Several batches consist of a small number (<<56) of faults": after a
  // replay an SM only gets sm_tokens_per_replay new faults.
  GpuConfig cfg = quiet_config();
  GpuEngine gpu(cfg, 1);
  const auto spec = make_vecadd_paged();
  gpu.launch(spec.kernel);
  SetOracle oracle;
  gpu.generate(0, oracle);
  // Service the full first window.
  for (const auto& f : gpu.fault_buffer().drain(256)) {
    oracle.resident.insert(f.page);
  }
  gpu.fault_buffer().flush();
  gpu.on_replay();
  const auto second = gpu.generate(0, oracle);
  EXPECT_LE(second.faults_pushed, cfg.sm_tokens_per_replay);
  EXPECT_GT(second.faults_pushed, 0u);
}

TEST(GpuEngine, SameUtlbDuplicatesEmittedWhenProbabilityIsOne) {
  GpuConfig cfg = quiet_config();
  cfg.dup_same_utlb_prob = 1.0;
  GpuEngine gpu(cfg, 1);
  // Two warps in one block read the same page: the second warp must emit
  // a duplicate fault record.
  KernelBuilder builder("same-page", 64);
  for (int w = 0; w < 2; ++w) {
    builder.add_page(42, AccessType::kRead);
    builder.end_group(1000);
    builder.end_warp();
  }
  builder.end_block();
  const KernelDesc kernel = builder.finish();
  gpu.launch(kernel);
  SetOracle oracle;
  const auto result = gpu.generate(0, oracle);
  EXPECT_EQ(result.faults_pushed, 2u);
  EXPECT_EQ(result.duplicate_pushes, 1u);
}

TEST(GpuEngine, BlocksSpreadAcrossSms) {
  // Table 2's premise: a grid's blocks land on (nearly) all SMs, so a
  // batch mixes fault origins.
  GpuConfig cfg = quiet_config();
  GpuEngine gpu(cfg, 1);
  const auto spec = make_regular(64ULL << 20, 4, 320, 2);
  gpu.launch(spec.kernel);
  SetOracle oracle;
  gpu.generate(0, oracle);
  std::unordered_set<std::uint32_t> sms;
  for (const auto& f : gpu.fault_buffer().drain(100000)) sms.insert(f.sm);
  EXPECT_GE(sms.size(), cfg.num_sms / 2);
}

TEST(GpuEngine, TimestampsAdvanceWithinWindow) {
  GpuEngine gpu(quiet_config(), 1);
  const auto spec = make_vecadd_paged();
  gpu.launch(spec.kernel);
  SetOracle oracle;
  gpu.generate(5000, oracle);
  const auto faults = gpu.fault_buffer().drain(256);
  ASSERT_GE(faults.size(), 2u);
  EXPECT_GE(faults.front().timestamp, 5000u);
  EXPECT_LT(faults.front().timestamp, faults.back().timestamp);
}

TEST(GpuEngine, ComputeTimeAccruesWhenGroupsComplete) {
  GpuEngine gpu(quiet_config(), 1);
  const auto spec = make_vecadd_paged();
  gpu.launch(spec.kernel);
  SetOracle oracle;
  // Pre-populate everything: all groups complete in the first window.
  for (PageId p = 0; p < 3 * 512; ++p) oracle.resident.insert(p);
  const auto result = gpu.generate(0, oracle);
  EXPECT_EQ(result.faults_pushed, 0u);
  EXPECT_GT(result.compute_ns, 0u);
  EXPECT_TRUE(gpu.all_done());
}

TEST(GpuEngine, ZeroComputeWarpsArriveTightly) {
  // Dependence-free microbenchmarks (compute_ns == 0) take no phase skew:
  // their window's arrivals span far less than the configured spread.
  GpuConfig cfg = quiet_config();
  GpuEngine gpu(cfg, 1);
  const auto spec = make_regular(32ULL << 20, 4, 80, 2);
  gpu.launch(spec.kernel);
  SetOracle oracle;
  gpu.generate(1000, oracle);
  SimTime max_ts = 0;
  for (const auto& f : gpu.fault_buffer().drain(100000)) {
    max_ts = std::max(max_ts, f.timestamp);
  }
  EXPECT_LT(max_ts - 1000, cfg.warp_phase_spread_ns / 2);
}

TEST(GpuEngine, ComputeWarpsSpreadAcrossThePhaseWindow) {
  GpuConfig cfg = quiet_config();
  GpuEngine gpu(cfg, 1);
  const auto spec = make_stream_triad(1 << 16);
  gpu.launch(spec.kernel);
  SetOracle oracle;
  gpu.generate(0, oracle);
  SimTime max_ts = 0;
  for (const auto& f : gpu.fault_buffer().drain(100000)) {
    max_ts = std::max(max_ts, f.timestamp);
  }
  EXPECT_GT(max_ts, cfg.warp_phase_spread_ns / 2);
}

TEST(GpuEngine, RemoteMappedAccessesBypassTheFaultPath) {
  struct RemoteOracle : ResidencyOracle {
    bool is_resident_on_gpu(PageId) const override { return false; }
    PageLocation classify(PageId) const override {
      return PageLocation::kRemoteMapped;
    }
  };
  GpuEngine gpu(quiet_config(), 1);
  const auto spec = make_vecadd_coalesced(1 << 12);
  gpu.launch(spec.kernel);
  RemoteOracle oracle;
  const auto result = gpu.generate(0, oracle);
  EXPECT_EQ(result.faults_pushed, 0u);
  EXPECT_GT(result.remote_requests, 0u);
  EXPECT_EQ(gpu.remote_accesses(), result.remote_requests);
  EXPECT_TRUE(gpu.all_done());
}

TEST(GpuEngine, DefaultClassifyMatchesResidency) {
  SetOracle oracle;
  oracle.resident.insert(5);
  EXPECT_EQ(oracle.classify(5), ResidencyOracle::PageLocation::kGpuResident);
  EXPECT_EQ(oracle.classify(6),
            ResidencyOracle::PageLocation::kFaultRequired);
}

TEST(GpuEngine, ReplayCountsTracked) {
  GpuEngine gpu(quiet_config(), 1);
  const auto spec = make_vecadd_paged();
  gpu.launch(spec.kernel);
  SetOracle oracle;
  run_to_completion(gpu, oracle);
  EXPECT_GT(gpu.replays_seen(), 0u);
  EXPECT_GT(gpu.blocks_retired(), 0u);
}

}  // namespace
}  // namespace uvmsim
