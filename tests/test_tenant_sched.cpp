// Fairness / isolation harness for the multi-tenant UVM server.
//
// Three layers of checks:
//   * TenantScheduler unit tests — the weighted disciplines in isolation,
//     driven with synthetic charges (stride proportionality and lag
//     forgiveness, DRR ring order and weighted refill, validation).
//   * MultiClientSystem contract tests — quota rounding and enforcement
//     through the device-memory cap, per-grant batch caps and deferral
//     accounting, the spec-count error message.
//   * A 20-seed fuzz over randomized tenant rosters asserting the
//     fairness/isolation properties under ALL driver parallelism
//     policies: nobody starves (every tenant is serviced, max batch wait
//     stays within a few full grant rounds), quotas are never exceeded,
//     the ledger is internally consistent, and weighted shares stay
//     plausible inside the all-backlogged window.
//   * The deterministic 64-tenant acceptance scenario: mixed roster,
//     weights {1,2,4}, stride — shares within 10% of weights and Jain's
//     index >= 0.95 (the ISSUE acceptance bar); DRR hits the same bar in
//     its own currency (faults).
#include "uvm/tenant_sched.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/tenant_report.hpp"
#include "common/stats.hpp"
#include "core/multi_client.hpp"
#include "test_util.hpp"
#include "workloads/tenant_mix.hpp"

namespace uvmsim {
namespace {

using testutil::make_tenant_fuzz_case;
using testutil::small_config;
using testutil::TenantFuzzCase;

constexpr std::uint64_t kSeeds = 20;

// ---- TenantScheduler units ----------------------------------------------

TEST(TenantScheduler_, StridePicksProportionallyToWeights) {
  TenantScheduler sched({TenantSchedPolicy::kStride}, {1.0, 2.0, 4.0});
  const std::vector<std::size_t> all{0, 1, 2};
  std::vector<std::uint64_t> grants(3, 0);
  for (int round = 0; round < 7000; ++round) {
    const std::size_t w = sched.pick(all);
    ++grants[w];
    sched.charge(w, 1000, 64);  // constant service per grant
  }
  // With all tenants permanently backlogged and equal-cost grants, grant
  // counts converge to the weight ratio 1:2:4 exactly (+/- one in-flight
  // round).
  EXPECT_NEAR(static_cast<double>(grants[0]), 1000.0, 4.0);
  EXPECT_NEAR(static_cast<double>(grants[1]), 2000.0, 4.0);
  EXPECT_NEAR(static_cast<double>(grants[2]), 4000.0, 4.0);
}

TEST(TenantScheduler_, StrideBreaksTiesToLowestIndex) {
  TenantScheduler sched({TenantSchedPolicy::kStride}, {1.0, 1.0, 1.0});
  EXPECT_EQ(sched.pick({0, 1, 2}), 0u);  // all vtimes equal at start
  sched.charge(0, 500, 1);
  EXPECT_EQ(sched.pick({0, 1, 2}), 1u);  // 1 and 2 tie at 0; lowest wins
}

TEST(TenantScheduler_, StrideForgivesLagWithoutBankingCredit) {
  TenantScheduler sched({TenantSchedPolicy::kStride}, {1.0, 1.0});
  // Tenant 0 is serviced alone for a long stretch while tenant 1 idles.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(sched.pick({0}), 0u);
    sched.charge(0, 1000, 64);
  }
  // When tenant 1 re-enters the backlog it is lifted to the global
  // virtual time: it must NOT monopolize the worker to repay 100 grants
  // of "debt" — service alternates immediately.
  std::uint64_t tenant1_wins = 0;
  for (int i = 0; i < 20; ++i) {
    const std::size_t w = sched.pick({0, 1});
    if (w == 1) ++tenant1_wins;
    sched.charge(w, 1000, 64);
  }
  EXPECT_GE(tenant1_wins, 9u);
  EXPECT_LE(tenant1_wins, 11u);
}

TEST(TenantScheduler_, DrrServicesFaultsProportionallyToWeights) {
  TenantSchedConfig cfg{TenantSchedPolicy::kDeficitRoundRobin, 64};
  TenantScheduler sched(cfg, {1.0, 2.0, 4.0});
  const std::vector<std::size_t> all{0, 1, 2};
  std::vector<std::uint64_t> faults(3, 0);
  for (int round = 0; round < 7000; ++round) {
    const std::size_t w = sched.pick(all);
    faults[w] += 64;
    sched.charge(w, 1000, 64);
  }
  const double total = 7000.0 * 64.0;
  EXPECT_NEAR(faults[0] / total, 1.0 / 7.0, 0.01);
  EXPECT_NEAR(faults[1] / total, 2.0 / 7.0, 0.01);
  EXPECT_NEAR(faults[2] / total, 4.0 / 7.0, 0.01);
}

TEST(TenantScheduler_, DrrRoundRobinsAtEqualWeights) {
  TenantSchedConfig cfg{TenantSchedPolicy::kDeficitRoundRobin, 64};
  TenantScheduler sched(cfg, {1.0, 1.0, 1.0});
  const std::vector<std::size_t> all{0, 1, 2};
  // One quantum's worth of faults per grant: the cursor hands the worker
  // around the ring strictly.
  for (int lap = 0; lap < 4; ++lap) {
    for (std::size_t expect = 0; expect < 3; ++expect) {
      const std::size_t w = sched.pick(all);
      EXPECT_EQ(w, expect) << "lap " << lap;
      sched.charge(w, 1000, 64);
    }
  }
}

TEST(TenantScheduler_, DrrIsWorkConservingPastTheQuantum) {
  // A grant may overdraw its deficit (a batch always services at least
  // one batch); the tenant just sits out refill rounds afterwards.
  TenantSchedConfig cfg{TenantSchedPolicy::kDeficitRoundRobin, 16};
  TenantScheduler sched(cfg, {1.0, 1.0});
  ASSERT_EQ(sched.pick({0, 1}), 0u);
  sched.charge(0, 1000, 100);  // overdraws 16-fault quantum by 84
  EXPECT_LT(sched.deficit(0), 0.0);
  // Tenant 1 now wins repeatedly until tenant 0's deficit recovers: once
  // on its initial quantum, then 5 refill rounds until -84 + 6*16 > 0.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(sched.pick({0, 1}), 1u) << i;
    sched.charge(1, 1000, 16);
  }
  EXPECT_EQ(sched.pick({0, 1}), 0u);
}

TEST(TenantScheduler_, ValidatesWeightsAndQuantum) {
  EXPECT_THROW(TenantScheduler({TenantSchedPolicy::kStride}, {1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(TenantScheduler({TenantSchedPolicy::kStride}, {-1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      TenantScheduler({TenantSchedPolicy::kDeficitRoundRobin, 0}, {1.0}),
      std::invalid_argument);
  TenantScheduler ok({TenantSchedPolicy::kStride}, {1.0, 2.0});
  EXPECT_THROW(ok.pick({}), std::invalid_argument);
}

// ---- MultiClientSystem tenant contract ----------------------------------

TEST(TenantSystem, SpecCountMismatchNamesBothCounts) {
  MultiClientSystem multi(small_config(), 3);
  try {
    multi.run({make_stream_triad(1 << 12)});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 specs"), std::string::npos) << what;
    EXPECT_NE(what.find("3 clients"), std::string::npos) << what;
  }
}

TEST(TenantSystem, QuotaRoundsUpToChunksWithMinimumTwo) {
  SystemConfig cfg = small_config(64);
  std::vector<TenantConfig> tenants(3);
  tenants[0].quota_pages = 100;   // < 1 chunk -> 2-chunk floor (4 MB)
  tenants[1].quota_pages = 1500;  // 6000 KB -> 3 chunks (6 MB)
  tenants[2].quota_pages = 0;     // off -> full device memory
  MultiClientSystem multi(cfg, tenants, {TenantSchedPolicy::kStride});

  EXPECT_EQ(multi.driver(0).gpu_memory().total_chunks(), 2u);
  EXPECT_EQ(multi.driver(1).gpu_memory().total_chunks(), 3u);
  EXPECT_EQ(multi.driver(2).gpu_memory().total_chunks(),
            cfg.gpu.memory_bytes / kVaBlockSize);

  const auto result = multi.run({make_stream_triad(1 << 14),
                                 make_stream_triad(1 << 14),
                                 make_stream_triad(1 << 14)});
  // The effective (post-rounding) quota is echoed into the ledger.
  EXPECT_EQ(result.per_tenant[0].quota_pages, 2 * kVaBlockSize / kPageSize);
  EXPECT_EQ(result.per_tenant[1].quota_pages, 3 * kVaBlockSize / kPageSize);
  EXPECT_EQ(result.per_tenant[2].quota_pages, 0u);
}

TEST(TenantSystem, QuotaAppliesEvictionPressureAndIsNeverExceeded) {
  // Two tenants with identical 8 MB footprints; only tenant 0 carries a
  // 4 MB quota. The quota'd tenant thrashes inside its cap, the other
  // fits comfortably — eviction pressure is tenant-local.
  SystemConfig cfg = small_config(64);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  std::vector<TenantConfig> tenants(2);
  tenants[0].quota_pages = 1024;  // 4 MB cap
  const auto spec = make_stream_triad((8u << 20) / (3 * sizeof(double)), 2);
  MultiClientSystem multi(cfg, tenants, {TenantSchedPolicy::kStride});
  const auto result = multi.run({spec, spec});

  EXPECT_GT(result.per_tenant[0].evictions, 0u);
  EXPECT_EQ(result.per_tenant[1].evictions, 0u);
  // Residency can never exceed the quota: the cap IS the device memory.
  const auto& mem = multi.driver(0).gpu_memory();
  EXPECT_EQ(mem.total_chunks(), 2u);
  EXPECT_LE(mem.chunks_in_use(), mem.total_chunks());
  EXPECT_LE(multi.driver(0).va_space().gpu_resident_pages(),
            result.per_tenant[0].quota_pages);
}

TEST(TenantSystem, GrantCapBoundsBatchesAndCountsDeferrals) {
  SystemConfig cfg = small_config();
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  cfg.driver.batch_size = 8;  // backlog outlives one batch -> deferrals
  std::vector<TenantConfig> tenants(2);
  tenants[0].max_batches_per_grant = 1;
  tenants[1].max_batches_per_grant = 1;
  MultiClientSystem multi(cfg, tenants, {TenantSchedPolicy::kStride});
  const auto result = multi.run({make_regular(1 << 19),
                                 make_regular(1 << 19)});
  std::uint64_t deferrals = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const TenantStats& ts = result.per_tenant[i];
    EXPECT_EQ(ts.batches, ts.grants) << i;  // cap 1: one batch per grant
    EXPECT_LE(ts.deferrals, ts.grants) << i;
    deferrals += ts.deferrals;
  }
  EXPECT_GT(deferrals, 0u);  // dense stream: grants cut with work pending
}

TEST(TenantSystem, WeightedArbitrationPostsNoCancelledEvents) {
  // The weighted path posts exactly one interrupt per grant; every posted
  // event executes (the engine has no cancellation).
  SystemConfig cfg = small_config();
  MultiClientSystem multi(cfg, std::vector<TenantConfig>(4),
                          {TenantSchedPolicy::kStride});
  const auto result = multi.run({make_stream_triad(1 << 14),
                                 make_stream_triad(1 << 14),
                                 make_vecadd_coalesced(1 << 14),
                                 make_stream_triad(1 << 13)});
  const auto& stats = multi.engine_stats();
  EXPECT_EQ(stats.posted, stats.executed);
  EXPECT_GT(result.batches_serviced, 0u);
}

// ---- Fairness / isolation fuzz ------------------------------------------

void check_tenant_ledger(MultiClientSystem& multi,
                         const TenantFuzzCase& c,
                         const MultiClientResult& result,
                         const std::string& what) {
  const std::size_t n = c.tenants.size();
  ASSERT_EQ(result.per_tenant.size(), n) << what;

  std::uint64_t sum_batches = 0;
  SimTime sum_service = 0;
  SimTime worst_grant_round = 0;  // one full round of everyone's worst grant
  for (const TenantStats& ts : result.per_tenant) {
    worst_grant_round += ts.max_grant_ns;
  }

  for (std::size_t i = 0; i < n; ++i) {
    const TenantStats& ts = result.per_tenant[i];
    const RunResult& r = result.per_client[i];
    const std::string who = what + " tenant " + std::to_string(i);

    // No starvation: every tenant was serviced and finished.
    EXPECT_GE(ts.grants, 1u) << who;
    EXPECT_GE(ts.batches, ts.grants) << who;
    EXPECT_GT(ts.completion_ns, 0u) << who;
    EXPECT_LE(ts.completion_ns, result.makespan_ns) << who;

    // Bounded wait: no serviced batch waited longer than a few full
    // rounds of every tenant's worst-case grant (generous constant; a
    // starved tenant would blow through this by orders of magnitude).
    EXPECT_LE(ts.max_wait_ns, 8 * worst_grant_round + 1'000'000u) << who;

    // Per-grant cap: batches per grant never exceed the configured cap.
    const std::uint32_t cap = c.tenants[i].max_batches_per_grant;
    if (cap != 0) {
      EXPECT_LE(ts.batches, static_cast<std::uint64_t>(cap) * ts.grants)
          << who;
    }
    EXPECT_LE(ts.deferrals, ts.grants) << who;

    // Quota isolation: the device-memory cap IS the quota, so residency
    // can never exceed it; the ledger echoes the post-rounding value.
    const auto& mem = multi.driver(static_cast<std::uint32_t>(i)).gpu_memory();
    EXPECT_LE(mem.chunks_in_use(), mem.total_chunks()) << who;
    if (c.tenants[i].quota_pages != 0) {
      const std::uint64_t quota_bytes = c.tenants[i].quota_pages * kPageSize;
      const std::uint64_t chunks = std::max<std::uint64_t>(
          2, (quota_bytes + kVaBlockSize - 1) / kVaBlockSize);
      EXPECT_EQ(mem.total_chunks(),
                std::min(c.config.gpu.memory_bytes / kVaBlockSize, chunks))
          << who;
      EXPECT_EQ(ts.quota_pages, mem.total_chunks() * kVaBlockSize / kPageSize)
          << who;
      EXPECT_LE(multi.driver(static_cast<std::uint32_t>(i))
                    .va_space()
                    .gpu_resident_pages(),
                ts.quota_pages)
          << who;
    } else {
      EXPECT_EQ(ts.quota_pages, 0u) << who;
    }

    // Ledger consistency.
    EXPECT_LE(ts.window_service_ns, ts.service_ns) << who;
    EXPECT_LE(ts.window_faults, ts.faults) << who;
    EXPECT_LE(ts.faults, r.total_faults) << who;
    EXPECT_EQ(ts.batches, r.log.size()) << who;
    EXPECT_EQ(ts.evictions, r.evictions) << who;
    sum_batches += ts.batches;
    sum_service += ts.service_ns;
  }
  EXPECT_EQ(sum_batches, result.batches_serviced) << what;
  // Grants are disjoint intervals on the shared timeline and cover all
  // worker busy time.
  EXPECT_LE(sum_service, result.makespan_ns) << what;
  EXPECT_GE(sum_service, result.worker_busy_ns) << what;

  // Weak in-window fairness: while every tenant was backlogged, the
  // weight-normalized shares of the policy's own currency (service-ns for
  // stride, faults for DRR) must not collapse. The sharp 10% bar lives in
  // the deterministic acceptance tests; fuzzed windows can be short, so
  // this only rejects gross unfairness.
  bool all_in_window = true;
  std::vector<double> normalized;
  normalized.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TenantStats& ts = result.per_tenant[i];
    const double x =
        c.sched.policy == TenantSchedPolicy::kDeficitRoundRobin
            ? static_cast<double>(ts.window_faults)
            : static_cast<double>(ts.window_service_ns);
    if (x <= 0.0) all_in_window = false;
    normalized.push_back(x / c.tenants[i].weight);
  }
  if (all_in_window) {
    EXPECT_GE(jains_index(normalized), 0.4) << what;
  }
}

TEST(TenantFairness, FuzzedRostersAreFairUnderAllParallelismPolicies) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const TenantFuzzCase c = make_tenant_fuzz_case(seed);
    for (const ServicingPolicy policy :
         {ServicingPolicy::kSerial, ServicingPolicy::kPerVaBlock,
          ServicingPolicy::kPerSm}) {
      SystemConfig cfg = c.config;
      cfg.driver.parallelism = {policy,
                                policy == ServicingPolicy::kSerial ? 1u : 4u};
      MultiClientSystem multi(cfg, c.tenants, c.sched);
      const auto result = multi.run(c.specs);
      check_tenant_ledger(
          multi, c, result,
          "seed " + std::to_string(seed) + " policy " +
              std::to_string(static_cast<int>(policy)) + " sched " +
              std::to_string(static_cast<int>(c.sched.policy)));
    }
  }
}

TEST(TenantFairness, FuzzedRunsRepeatIdentically) {
  // Same roster, fresh system: the tenant ledger reproduces byte for
  // byte (scheduler state is rebuilt per run).
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const TenantFuzzCase c = make_tenant_fuzz_case(seed);
    const auto observe = [&c] {
      MultiClientSystem multi(c.config, c.tenants, c.sched);
      const auto result = multi.run(c.specs);
      std::string lines;
      for (std::size_t i = 0; i < result.per_tenant.size(); ++i) {
        lines += serialize_tenant(i, result.per_tenant[i]);
        lines += '\n';
      }
      return lines;
    };
    ASSERT_EQ(observe(), observe()) << "seed " << seed;
  }
}

// ---- Deterministic acceptance scenarios ---------------------------------

MultiClientResult run_acceptance(TenantSchedPolicy policy,
                                 std::uint64_t footprint_kb) {
  SystemConfig cfg = small_config(64);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  cfg.driver.batch_size = 64;
  TenantSchedConfig sched;
  sched.policy = policy;
  sched.drr_quantum_faults = 64;
  MultiClientSystem multi(cfg, make_tenant_matrix(64, {1.0, 2.0, 4.0}, 0, 1),
                          sched);
  return multi.run(
      make_tenant_roster(64, TenantMix::kMixed, cfg.seed, footprint_kb));
}

TEST(TenantFairness, StrideSharesTrackWeightsWithinTenPercent) {
  // The ISSUE acceptance bar: 64 tenants, mixed workloads, weights
  // {1,2,4} — in-window service shares within 10% of the weight targets
  // and Jain's index >= 0.95. Footprints are sized so every tenant takes
  // many grants inside the window (share error decays with 1/grants).
  const auto result = run_acceptance(TenantSchedPolicy::kStride, 32768);
  const TenantReport report = build_tenant_report(result.per_tenant);
  EXPECT_GE(report.jain_index, 0.95) << tenant_report_table(report);
  EXPECT_LE(report.max_abs_share_error, 0.10) << tenant_report_table(report);
  for (const TenantReportRow& row : report.rows) {
    EXPECT_GT(row.window_service_ns, 0u) << "tenant " << row.tenant;
  }
}

TEST(TenantFairness, DrrSharesTrackWeightsInFaultUnits) {
  // DRR's fairness currency is faults, not service time: assert the
  // weight-normalized in-window FAULT shares converge.
  const auto result = run_acceptance(TenantSchedPolicy::kDeficitRoundRobin,
                                     32768);
  double weight_sum = 0.0;
  double fault_sum = 0.0;
  for (const TenantStats& ts : result.per_tenant) {
    weight_sum += ts.weight;
    fault_sum += static_cast<double>(ts.window_faults);
  }
  ASSERT_GT(fault_sum, 0.0);
  std::vector<double> normalized;
  double max_err = 0.0;
  for (const TenantStats& ts : result.per_tenant) {
    const double share = static_cast<double>(ts.window_faults) / fault_sum;
    const double target = ts.weight / weight_sum;
    max_err = std::max(max_err, std::abs(share - target) / target);
    normalized.push_back(static_cast<double>(ts.window_faults) / ts.weight);
  }
  EXPECT_GE(jains_index(normalized), 0.95);
  EXPECT_LE(max_err, 0.10);
}

}  // namespace
}  // namespace uvmsim
