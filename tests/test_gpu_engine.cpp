#include "gpu/gpu_engine.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
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

/// A hand-written kernel: blocks of warps of (compute_ns, pages) groups,
/// every access a read.
struct GroupSpec {
  SimTime compute_ns = 0;
  std::vector<PageId> pages;
};
using WarpSpec = std::vector<GroupSpec>;
using BlockSpec = std::vector<WarpSpec>;

KernelDesc build_kernel(const std::vector<BlockSpec>& blocks) {
  KernelBuilder builder("scenario", 64);
  for (const BlockSpec& block : blocks) {
    for (const WarpSpec& warp : block) {
      for (const GroupSpec& group : warp) {
        for (const PageId page : group.pages) {
          builder.add_page(page, AccessType::kRead);
        }
        builder.end_group(group.compute_ns);
      }
      builder.end_warp();
    }
    builder.end_block();
  }
  return builder.finish();
}

/// One token per record: page:sm:block@timestamp, with a trailing 'd' on
/// duplicate emissions (every access in these scenarios is a read, and
/// the µTLB follows from the SM).
std::string describe(const std::vector<FaultRecord>& faults) {
  std::ostringstream out;
  for (const FaultRecord& f : faults) {
    out << f.page << ':' << f.sm << ':' << f.block << '@' << f.timestamp
        << (f.is_duplicate_emission ? "d " : " ");
  }
  return out.str();
}

/// Drain every buffered record into `all`, making each page resident.
void service_all(GpuEngine& gpu, SetOracle& oracle,
                 std::vector<FaultRecord>& all) {
  for (const FaultRecord& f : gpu.fault_buffer().drain(4096)) {
    oracle.resident.insert(f.page);
    all.push_back(f);
  }
}

/// service_all, except that the pages in `kept` stay non-resident.
void service_all_but(GpuEngine& gpu, SetOracle& oracle,
                     std::vector<FaultRecord>& all,
                     const std::unordered_set<PageId>& kept) {
  for (const FaultRecord& f : gpu.fault_buffer().drain(4096)) {
    if (!kept.contains(f.page)) oracle.resident.insert(f.page);
    all.push_back(f);
  }
}

// The four scenarios below pin fault generation at the points where a
// window revisits warps: rescans after mid-window block retirement, and
// the reissue of waiting accesses after replays. Their expected record
// sequences were recorded from the engine that re-probed every live warp
// on each rescan and swept every warp's state at each replay; skipping
// warps that cannot move must reproduce them exactly, RNG draws included.

TEST(GpuEngineScenario, TokenBlockedWarpJoinsEntryOfBlockScheduledMidWindow) {
  // One µTLB per SM pair, one block per SM, one throttle token per SM.
  // Block 0 (SM0) spends its token on page 0 and leaves page 1 blocked by
  // the throttle. Blocks 1 and 2 finish on resident pages, so blocks 4
  // (SM1, sharing SM0's µTLB) and 5 (SM2) are scheduled mid-window. Block
  // 4 faults page 1; block 5 finishes, and the next rescan lets block 0's
  // warp join page 1's entry with a duplicate record.
  GpuConfig cfg;
  cfg.num_sms = 4;
  cfg.max_blocks_per_sm = 1;
  cfg.utlb_outstanding_cap = 8;
  cfg.sm_token_capacity = 1;
  cfg.sm_tokens_per_replay = 1;
  cfg.dup_same_utlb_prob = 1.0;
  const KernelDesc kernel = build_kernel({
      {{{100, {0, 1}}}},  // block 0, SM0
      {{{100, {2}}}},     // block 1, SM1: resident
      {{{100, {3}}}},     // block 2, SM2: resident
      {{{100, {4}}}},     // block 3, SM3
      {{{100, {1}}}},     // block 4, SM1 after block 1 retires
      {{{100, {5}}}},     // block 5, SM2 after block 2 retires: resident
      {{{100, {6}}}},     // block 6, SM2 after block 5 retires
  });
  GpuEngine gpu(cfg, 7);
  gpu.launch(kernel);
  SetOracle oracle;
  oracle.resident = {2, 3, 5};
  EXPECT_EQ(describe(run_to_completion(gpu, oracle)),
            "4:3:3@16665 1:1:4@37732 6:2:6@145319 0:0:0@156008 "
            "1:0:0@156043d ");
}

TEST(GpuEngineScenario, WarpSettlingOnComputeGroupDrawsPhaseInRescan) {
  // Block 0's warp starts the window on a zero-compute group (no phase
  // draw), moves on to a compute group and fills its 2-entry µTLB: it is
  // settled. Block 2 retires, block 4 is scheduled, and the rescan makes
  // block 0's first phase draw of the window before block 4 draws its
  // own phase and jitter.
  GpuConfig cfg;
  cfg.num_sms = 4;
  cfg.max_blocks_per_sm = 1;
  cfg.utlb_outstanding_cap = 2;
  const KernelDesc kernel = build_kernel({
      {{{0, {0}}, {100, {1, 2, 3}}}},  // block 0, SM0
      {{{100, {4}}}},                  // block 1, SM1: µTLB 0 is full
      {{{100, {5}}}},                  // block 2, SM2: resident
      {{{100, {6}}}},                  // block 3, SM3
      {{{100, {7}}}},                  // block 4, SM2 after block 2
  });
  GpuEngine gpu(cfg, 11);
  gpu.launch(kernel);
  SetOracle oracle;
  oracle.resident = {0, 5};
  EXPECT_EQ(describe(run_to_completion(gpu, oracle)),
            "1:0:0@15 2:0:0@31 7:2:4@48670 6:3:3@88165 4:1:1@83013 "
            "3:0:0@101530 ");
}

TEST(GpuEngineScenario, TwoReplaysBetweenVisitsReissueWaitingAccesses) {
  // Four faults spend all four throttle tokens, and replays refill none:
  // after two replays with no window between them, pages 2 and 3 can only
  // fault again as reissues, which take no token.
  GpuConfig cfg;
  cfg.sm_token_capacity = 4;
  cfg.sm_tokens_per_replay = 0;
  const KernelDesc kernel = build_kernel({
      {{{100, {0, 1, 2, 3}}, {100, {4, 5}}}, {{100, {6}}}},
  });
  GpuEngine gpu(cfg, 3);
  gpu.launch(kernel);
  SetOracle oracle;
  std::vector<FaultRecord> all;
  gpu.generate(0, oracle);
  for (const FaultRecord& f : gpu.fault_buffer().drain(4096)) {
    if (f.page < 2) oracle.resident.insert(f.page);
    all.push_back(f);
  }
  gpu.on_replay();
  gpu.on_replay();
  gpu.generate(1000, oracle);
  service_all(gpu, oracle, all);
  gpu.on_replay();
  gpu.generate(2000, oracle);
  service_all(gpu, oracle, all);
  EXPECT_EQ(gpu.replays_seen(), 3u);
  EXPECT_EQ(describe(all),
            "0:0:0@124618 1:0:0@124643 2:0:0@124670 3:0:0@124704 "
            "2:0:0@146045 3:0:0@146075 ");
}

TEST(GpuEngineScenario, FullResetMidKernelRefaultsTheWorkingSet) {
  // Half of the first window is serviced, then a full GPU reset drops the
  // rest from the buffer and the µTLBs: the warps fault those pages again.
  GpuConfig cfg;
  cfg.num_sms = 2;
  cfg.max_blocks_per_sm = 1;
  const KernelDesc kernel = build_kernel({
      {{{100, {0, 1, 2}}, {50, {3, 4}}}, {{100, {5, 6}}}},
      {{{0, {7, 8}}, {100, {9}}}},
      {{{100, {10, 11}}}},
  });
  GpuEngine gpu(cfg, 5);
  gpu.launch(kernel);
  SetOracle oracle;
  std::vector<FaultRecord> all;
  gpu.generate(0, oracle);
  for (const FaultRecord& f : gpu.fault_buffer().drain(3)) {
    oracle.resident.insert(f.page);
    all.push_back(f);
  }
  gpu.full_reset();
  EXPECT_TRUE(gpu.fault_buffer().empty());
  gpu.generate(500, oracle);
  for (const FaultRecord& f : run_to_completion(gpu, oracle)) {
    all.push_back(f);
  }
  EXPECT_TRUE(gpu.all_done());
  EXPECT_EQ(describe(all),
            "7:1:1@15 8:1:1@46 0:0:0@110201 9:1:1@516 1:0:0@154107 "
            "2:0:0@154134 5:0:0@154156 6:0:0@154185 10:1:2@6769 "
            "11:1:2@6794 3:0:0@139509 4:0:0@139527 ");
}

TEST(GpuEngineScenario, StormReportsUtlbEntriesInInsertionOrder) {
  // One zero-compute warp on SM 0 faults four pages whose insertion order
  // differs from any hash order; a storm budget of three re-reports the
  // first three entries its µTLB took, in that order.
  GpuConfig cfg = quiet_config();
  const KernelDesc kernel = build_kernel({{{{0, {40, 7, 23, 1}}}}});
  FaultInjectConfig inject;
  inject.enabled = true;
  inject.storm_prob = 1.0;
  inject.storm_faults = 3;
  FaultInjector injector(inject);
  GpuEngine gpu(cfg, 1);
  gpu.set_fault_injector(&injector);
  gpu.launch(kernel);
  SetOracle oracle;
  gpu.generate(0, oracle);
  std::vector<PageId> storm;
  for (const FaultRecord& f : gpu.fault_buffer().drain(4096)) {
    if (f.is_duplicate_emission) storm.push_back(f.page);
  }
  EXPECT_EQ(storm, (std::vector<PageId>{40, 7, 23}));
  EXPECT_EQ(injector.storm_faults_injected(), 3u);
}

/// SetOracle that lends its residency as a table promising `misses_fault`,
/// as UvmDriver does while no page can resolve remotely: the engine parks
/// warps only under that promise. A page in `pinned` resolves remotely, as
/// a thrashing pin makes it, and withdraws the promise.
struct PromiseOracle : SetOracle {
  std::unordered_set<PageId> pinned;
  mutable std::vector<PageMask> blocks;

  PageLocation classify(PageId page) const override {
    if (resident.contains(page)) return PageLocation::kGpuResident;
    return pinned.contains(page) ? PageLocation::kRemoteMapped
                                 : PageLocation::kFaultRequired;
  }
  Table residency_table() const override {
    blocks.clear();
    for (const PageId page : resident) {
      const VaBlockId b = va_block_of(page);
      if (b >= blocks.size()) blocks.resize(b + 1);
      blocks[b].set(page_index_in_block(page));
    }
    return {blocks.data(), blocks.size(), pinned.empty()};
  }
};

// The scenarios below pin the paths that park a warp (a visit that
// changed nothing), skip it (a full µTLB, or no token and nothing to
// reissue) and wake it (a page enters its µTLB, a page turns resident,
// the table withdraws its promise). Their expected record
// sequences were recorded from the engine that visited every live warp in
// every pass; skipping parked warps must reproduce them exactly.

TEST(GpuEngineScenario, ThrottleParkedWarpJoinsSiblingEntryLaterInWindow) {
  // One µTLB per SM pair, one block per SM, one throttle token per SM.
  // Block 0's warp X spends SM0's token on page 0, so warp W's first
  // visit is blocked on page 1 and parks W. Blocks 1 and 2 finish on
  // resident pages and the window rescans: W is skipped, then block 4
  // (SM1, sharing SM0's µTLB) faults page 1. Block 5 finishes, and the
  // next rescan visits W, which joins page 1's entry with a duplicate.
  GpuConfig cfg;
  cfg.num_sms = 4;
  cfg.max_blocks_per_sm = 1;
  cfg.utlb_outstanding_cap = 8;
  cfg.sm_token_capacity = 1;
  cfg.sm_tokens_per_replay = 1;
  cfg.dup_same_utlb_prob = 1.0;
  const KernelDesc kernel = build_kernel({
      {{{100, {0}}}, {{100, {1}}}},  // block 0, SM0: warps X and W
      {{{100, {2}}}},                // block 1, SM1: resident
      {{{100, {3}}}},                // block 2, SM2: resident
      {{{100, {4}}}},                // block 3, SM3
      {{{100, {1}}}},                // block 4, SM1 after block 1 retires
      {{{100, {5}}}},                // block 5, SM2 after block 2: resident
      {{{100, {6}}}},                // block 6, SM2 after block 5 retires
  });
  GpuEngine gpu(cfg, 7);
  gpu.launch(kernel);
  PromiseOracle oracle;
  oracle.resident = {2, 3, 5};
  EXPECT_EQ(describe(run_to_completion(gpu, oracle)),
            "4:3:3@16665 1:1:4@37732 6:2:6@145319 0:0:0@156008 "
            "1:0:0@156043d ");
}

TEST(GpuEngineScenario, UtlbFullParkedWarpWakesWhenABatchMakesItsPageResident) {
  // One µTLB per SM with two entries. Warp F fills SM0's µTLB with pages
  // 10 and 11, so warp W parks behind it on page 2, which block 1 faults
  // on SM1. The batch services page 2 only. After the replay F's reissues
  // fill the µTLB again before W's turn, but page 2 is resident now: W
  // completes its group and joins F's entry for page 10 with a duplicate.
  GpuConfig cfg;
  cfg.num_sms = 2;
  cfg.sms_per_utlb = 1;
  cfg.max_blocks_per_sm = 1;
  cfg.utlb_outstanding_cap = 2;
  cfg.dup_same_utlb_prob = 1.0;
  const KernelDesc kernel = build_kernel({
      {{{100, {10, 11}}}, {{100, {2}}, {100, {10}}}},  // block 0: F, W
      {{{100, {2}}}},                                 // block 1, SM1
  });
  GpuEngine gpu(cfg, 13);
  gpu.launch(kernel);
  PromiseOracle oracle;
  std::vector<FaultRecord> all;
  gpu.generate(0, oracle);
  for (const FaultRecord& f : gpu.fault_buffer().drain(4096)) {
    if (f.page == 2) oracle.resident.insert(f.page);
    all.push_back(f);
  }
  gpu.on_replay();
  gpu.generate(1000, oracle);
  for (const FaultRecord& f : run_to_completion(gpu, oracle)) {
    all.push_back(f);
  }
  EXPECT_EQ(describe(all),
            "2:1:1@44676 10:0:0@96613 11:0:0@96644 10:0:0@79380 "
            "11:0:0@79408 10:0:0@79432d ");
}

TEST(GpuEngineScenario, ParkedWaitingWarpSkippedAfterReplayReissuesLater) {
  // SM0 and SM1 share a two-entry µTLB; each SM has one throttle token
  // and regains one per replay. In the first window F (SM0) faults page
  // 10, V (SM1) joins that entry, and W (SM1) faults page 0, which fills
  // the µTLB. A second window without a replay finds all three idle and
  // parks them with waiting accesses. After a replay F reissues page 10
  // and faults 11 before W's turn, so W is skipped with its µTLB full, and
  // its waiting page 0 becomes a reissue. Pages 10 and 11 are serviced;
  // after the next replay V spends SM1's token on page 21, and W, with no
  // token left, still reissues page 0.
  GpuConfig cfg;
  cfg.num_sms = 2;
  cfg.max_blocks_per_sm = 1;
  cfg.utlb_outstanding_cap = 2;
  cfg.sm_token_capacity = 1;
  cfg.sm_tokens_per_replay = 1;
  cfg.dup_same_utlb_prob = 1.0;
  const KernelDesc kernel = build_kernel({
      {{{100, {10, 11}}}},                        // block 0, SM0: F
      {{{100, {10}}, {100, {21}}}, {{100, {0, 1}}}},  // block 1, SM1: V, W
  });
  GpuEngine gpu(cfg, 17);
  gpu.launch(kernel);
  PromiseOracle oracle;
  std::vector<FaultRecord> all;
  gpu.generate(0, oracle);
  service_all_but(gpu, oracle, all, {0, 10});
  gpu.generate(1000, oracle);
  service_all_but(gpu, oracle, all, {});
  gpu.on_replay();
  gpu.generate(2000, oracle);
  service_all_but(gpu, oracle, all, {0});
  gpu.on_replay();
  gpu.generate(3000, oracle);
  for (const FaultRecord& f : run_to_completion(gpu, oracle)) {
    all.push_back(f);
  }
  EXPECT_EQ(describe(all),
            "10:1:1@32956d 0:1:1@32991 10:0:0@45531 10:0:0@111493 "
            "11:0:0@111530 21:1:1@24203 0:1:1@24237 1:1:1@34107 ");
}

TEST(GpuEngineScenario, SkippedWarpKeepsItsReissueThroughAWindowWithoutReplay) {
  // As above, W is parked with page 0 waiting and skipped in the first
  // pass after a replay, which turns page 0 into a reissue. Page 0 is
  // then serviced, and a window without a replay wakes W: its reissue
  // finds page 0 resident, the group completes, and W joins the µTLB's
  // entry for page 10 with a duplicate.
  GpuConfig cfg;
  cfg.num_sms = 2;
  cfg.max_blocks_per_sm = 1;
  cfg.utlb_outstanding_cap = 2;
  cfg.sm_token_capacity = 1;
  cfg.sm_tokens_per_replay = 1;
  cfg.dup_same_utlb_prob = 1.0;
  const KernelDesc kernel = build_kernel({
      {{{100, {10, 11}}}},            // block 0, SM0: F
      {{{100, {0}}, {100, {10}}}},    // block 1, SM1: W
  });
  GpuEngine gpu(cfg, 23);
  gpu.launch(kernel);
  PromiseOracle oracle;
  std::vector<FaultRecord> all;
  gpu.generate(0, oracle);
  service_all_but(gpu, oracle, all, {0, 10});
  gpu.generate(1000, oracle);
  gpu.on_replay();
  gpu.generate(2000, oracle);
  service_all_but(gpu, oracle, all, {10, 11});
  oracle.resident.insert(0);
  gpu.generate(3000, oracle);
  for (const FaultRecord& f : run_to_completion(gpu, oracle)) {
    all.push_back(f);
  }
  EXPECT_EQ(describe(all),
            "0:1:1@78023 10:0:0@131841 10:0:0@8984 11:0:0@8998 "
            "10:1:1@110972d 11:0:0@71080 ");
}

TEST(GpuEngineScenario, PinWithdrawingTheMissPromiseVisitsEveryParkedWarp) {
  // One SM, one token per replay. Warp A spends it on page 0, so warp W
  // parks on page 1. Page 0 is serviced and page 1 is pinned: it now
  // resolves remotely, and the table stops promising misses_fault. In the
  // next window A spends the token on page 3; W, which the parked path
  // would skip for want of a token, is visited, completes page 1 remotely
  // and joins page 3's entry with a duplicate.
  GpuConfig cfg;
  cfg.num_sms = 1;
  cfg.max_blocks_per_sm = 1;
  cfg.sm_token_capacity = 1;
  cfg.sm_tokens_per_replay = 1;
  cfg.dup_same_utlb_prob = 1.0;
  const KernelDesc kernel = build_kernel({
      {{{100, {0}}, {100, {3}}}, {{100, {1}}, {100, {3}}}},  // warps A, W
  });
  GpuEngine gpu(cfg, 19);
  gpu.launch(kernel);
  PromiseOracle oracle;
  std::vector<FaultRecord> all;
  gpu.generate(0, oracle);
  service_all(gpu, oracle, all);
  oracle.pinned = {1};
  gpu.on_replay();
  const auto second = gpu.generate(1000, oracle);
  EXPECT_EQ(second.remote_requests, 1u);
  for (const FaultRecord& f : run_to_completion(gpu, oracle)) {
    all.push_back(f);
  }
  EXPECT_EQ(describe(all), "0:0:0@133549 3:0:0@38585 3:0:0@38624d ");
}

/// SetOracle that counts the engine's residency probes.
struct CountingSetOracle : SetOracle {
  mutable std::uint64_t classify_calls = 0;
  PageLocation classify(PageId page) const override {
    ++classify_calls;
    return SetOracle::classify(page);
  }
};

TEST(GpuEngineCounters, ResidencyProbesEqualOracleClassifyCalls) {
  GpuEngine gpu(GpuConfig{}, 9);
  const auto spec = make_stream_triad(1 << 15);
  gpu.launch(spec.kernel);
  CountingSetOracle oracle;
  run_to_completion(gpu, oracle);
  ASSERT_TRUE(gpu.all_done());
  EXPECT_GT(oracle.classify_calls, 0u);
  EXPECT_EQ(gpu.residency_probes(), oracle.classify_calls);
  // A table-less oracle sees every probe.
  EXPECT_EQ(gpu.oracle_probes(), oracle.classify_calls);
  EXPECT_GE(gpu.warp_visits(), gpu.idle_warp_visits());
}

/// CountingSetOracle that lends VABlock 0 of its residency as a one-block
/// table, with `misses_fault` as given.
struct TableSetOracle : CountingSetOracle {
  PageMask block0;
  bool misses_fault = false;
  Table residency_table() const override {
    return {&block0, 1, misses_fault};
  }
};

TEST(GpuEngineCounters, TableSettlesResidentHitsAndPromisedMisses) {
  // Launched at page 509: pages 509 and 510 are resident in the
  // one-block table. Without the miss promise, page 511 (not resident)
  // and page 512 (beyond the table) go to classify(); with it, nothing
  // does.
  const KernelDesc kernel = build_kernel({{{{100, {0, 1, 2, 3}}}}});
  for (const bool promise : {false, true}) {
    GpuEngine gpu(quiet_config(), 1);
    gpu.launch(kernel, 509);
    TableSetOracle oracle;
    oracle.resident = {509, 510};
    oracle.block0.set(509).set(510);
    oracle.misses_fault = promise;
    const auto result = gpu.generate(0, oracle);
    EXPECT_EQ(result.faults_pushed, 2u) << "promise " << promise;
    EXPECT_EQ(gpu.residency_probes(), 4u);
    EXPECT_EQ(gpu.oracle_probes(), promise ? 0u : 2u);
    EXPECT_EQ(oracle.classify_calls, gpu.oracle_probes());
  }
}

TEST(GpuEngineCounters, RescanAfterRetirementVisitsNoSettledWarp) {
  // Block 0 (SM0) has five one-page warps: four fault and fill the
  // 4-entry µTLB, and the fifth is blocked by the full µTLB, so all five
  // settle. Block 1 (SM1) finishes on a resident page, block 2 is
  // scheduled on SM1 mid-window and the window rescans. The rescan visits
  // only block 2's warp, which the full µTLB blocks too.
  GpuConfig cfg;
  cfg.num_sms = 2;
  cfg.max_blocks_per_sm = 1;
  cfg.utlb_outstanding_cap = 4;
  const KernelDesc kernel = build_kernel({
      {{{100, {0}}}, {{100, {1}}}, {{100, {2}}}, {{100, {3}}}, {{100, {6}}}},
      {{{100, {4}}}},
      {{{100, {5}}}},
  });
  GpuEngine gpu(cfg, 1);
  gpu.launch(kernel);
  CountingSetOracle oracle;
  oracle.resident = {4};
  const auto result = gpu.generate(0, oracle);
  EXPECT_EQ(result.faults_pushed, 4u);
  EXPECT_EQ(gpu.blocks_retired(), 1u);
  EXPECT_EQ(gpu.warp_visits(), 5u + 1u + 1u);
  EXPECT_EQ(gpu.idle_warp_visits(), 2u);  // the two µTLB-blocked warps
  EXPECT_EQ(gpu.residency_probes(), 7u);
  EXPECT_EQ(oracle.classify_calls, 7u);
}

TEST(GpuEngineCounters, RescanAfterReplayReprobesOnlyBlockedAccesses) {
  // One throttle token per SM and one more per replay. Block 0's warp
  // faults page 0 and leaves pages 1 and 4 throttle-blocked. After a
  // replay, its first visit reissues page 0, issues page 1 and leaves
  // page 4 blocked; block 1 finishes, block 2 is scheduled, and the
  // rescan re-probes only page 4: pages 0 and 1 wait on entries made
  // since the replay.
  GpuConfig cfg;
  cfg.num_sms = 2;
  cfg.max_blocks_per_sm = 1;
  cfg.sm_token_capacity = 1;
  cfg.sm_tokens_per_replay = 1;
  const KernelDesc kernel = build_kernel({
      {{{100, {0, 1, 4}}}},  // block 0, SM0
      {{{100, {3}}}},        // block 1, SM1
      {{{100, {5}}}},        // block 2, SM1 after block 1 retires
  });
  GpuEngine gpu(cfg, 1);
  gpu.launch(kernel);
  CountingSetOracle oracle;
  gpu.generate(0, oracle);
  EXPECT_EQ(gpu.residency_probes(), 4u);
  gpu.fault_buffer().drain(4096);
  oracle.resident.insert(3);
  gpu.on_replay();
  const auto second = gpu.generate(0, oracle);
  EXPECT_EQ(gpu.blocks_retired(), 1u);
  EXPECT_EQ(second.faults_pushed, 3u);  // pages 0 (reissue), 1 and 5
  EXPECT_EQ(gpu.residency_probes(), 4u + 3u + 1u + 1u + 1u);
  EXPECT_EQ(oracle.classify_calls, gpu.residency_probes());
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
