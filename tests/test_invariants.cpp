// Property-style fuzz harness: randomized small workloads over many seeds
// and every servicing policy must preserve the system's conservation
// invariants. This is the safety net for the live driver-parallelism
// model, which changes simulated time on every batch.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/invariants.hpp"
#include "analysis/log_io.hpp"
#include "core/system.hpp"
#include "test_util.hpp"

namespace uvmsim {
namespace {

using testutil::FuzzCase;
using testutil::make_counter_fuzz_case;
using testutil::make_fuzz_case;
using testutil::make_injected_fuzz_case;
using testutil::small_config;

constexpr std::uint64_t kSeeds = 20;

const std::vector<ServicingPolicy> kPolicies{
    ServicingPolicy::kSerial, ServicingPolicy::kPerVaBlock,
    ServicingPolicy::kPerSm};

/// The shared run oracle (analysis/invariants.hpp) finds no violation.
const std::vector<std::string> kClean;

std::uint64_t total_pages_migrated(const RunResult& result) {
  std::uint64_t n = 0;
  for (const auto& rec : result.log) n += rec.counters.pages_migrated;
  return n;
}

TEST(Invariants, FuzzedWorkloadsConserveAcrossPoliciesAndSeeds) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = make_fuzz_case(seed);
    std::vector<std::uint64_t> migrated;
    for (const auto policy : kPolicies) {
      SystemConfig cfg = c.config;
      cfg.driver.parallelism.policy = policy;
      System system(cfg);
      const auto result = system.run(c.spec);
      ASSERT_GT(result.total_faults, 0u) << "seed " << seed;
      EXPECT_EQ(run_violations(system.driver(), result), kClean)
          << "seed " << seed;
      // These cases are sized in-core: eviction must never fire, so the
      // cross-policy migration equality below is exact.
      ASSERT_EQ(result.evictions, 0u) << "seed " << seed;
      migrated.push_back(total_pages_migrated(result));
    }
    // Timing policies change WHEN pages move, never WHAT moves: without
    // prefetch the migrated-page total is identical across policies.
    // (Prefetch pulls timing-dependent extra pages, so only assert there
    // when it is off for this case.)
    if (!c.config.driver.prefetch_enabled) {
      EXPECT_EQ(migrated[1], migrated[0]) << "seed " << seed;
      EXPECT_EQ(migrated[2], migrated[0]) << "seed " << seed;
    }
  }
}

TEST(Invariants, InjectedFaultsConserveAndBalanceAcrossSeeds) {
  // Transient errors, lost interrupts, and fault storms may defer work,
  // never lose it: every run still completes with the conservation
  // invariants intact, and the injected-error books balance exactly
  // against the batch log.
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = make_injected_fuzz_case(seed);
    System system(c.config);
    const auto result = system.run(c.spec);
    ASSERT_GT(result.total_faults, 0u) << "seed " << seed;
    EXPECT_EQ(run_violations(system.driver(), result), kClean)
        << "seed " << seed;

    // Determinism: the same injected scenario replays bit-identically.
    System replay_system(c.config);
    const auto replay = replay_system.run(c.spec);
    ASSERT_EQ(replay.log.size(), result.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < result.log.size(); ++i) {
      ASSERT_EQ(serialize_batch(replay.log[i]), serialize_batch(result.log[i]))
          << "seed " << seed << " batch " << i;
    }
  }
}

TEST(Invariants, FatalInjectedRunsConserveRecoverAndBalanceAcrossSeeds) {
  // Fatal classes (double-bit ECC, poisoned pages, permanent channel
  // failure, wedged buffer) are contained by the recovery ladder: every
  // run still completes, conservation holds even with pages retired and
  // chunks blacklisted, and the recovery books balance against the log.
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = testutil::make_fatal_fuzz_case(seed);
    System system(c.config);
    const auto result = system.run(c.spec);
    ASSERT_GT(result.total_faults, 0u) << "seed " << seed;
    EXPECT_EQ(run_violations(system.driver(), result), kClean)
        << "seed " << seed;

    // Determinism: the same fatal schedule replays bit-identically,
    // including every recovery record.
    System replay_system(c.config);
    const auto replay = replay_system.run(c.spec);
    ASSERT_EQ(replay.log.size(), result.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < result.log.size(); ++i) {
      ASSERT_EQ(serialize_batch(replay.log[i]), serialize_batch(result.log[i]))
          << "seed " << seed << " batch " << i;
    }
  }
}

TEST(Invariants, CounterAssistedRunsConserveAndBalanceAcrossSeeds) {
  // The access-counter channel moves pages outside the fault path, but
  // the conservation invariants are channel-agnostic: promotions and
  // their evictions must never lose a page's only copy. The run's counter
  // totals, summed from the batch log, must equal the books the counter
  // servicer and the eviction path keep for themselves, and every
  // notification the GMMU queued is serviced (the post-kernel drain
  // empties the buffer).
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = make_counter_fuzz_case(seed);
    System system(c.config);
    const auto result = system.run(c.spec);
    ASSERT_GT(result.total_faults, 0u) << "seed " << seed;
    EXPECT_EQ(run_violations(system.driver(), result), kClean)
        << "seed " << seed;

    const UvmDriver& driver = system.driver();
    const BatchTotals logged = totals(result.log);
    EXPECT_EQ(logged.ctr_pages_promoted,
              driver.counter_servicer().total_pages_promoted())
        << "seed " << seed;
    EXPECT_EQ(logged.ctr_unpins, driver.counter_servicer().total_unpins())
        << "seed " << seed;
    EXPECT_EQ(logged.ctr_evictions, driver.total_counter_evictions())
        << "seed " << seed;
    EXPECT_EQ(result.counter_notifications, logged.ctr_notifications)
        << "seed " << seed;
  }
}

TEST(Invariants, CounterPromotionNeverRemapsRetiredPages) {
  // Poisoned pages retire to their host frames and resolve remotely from
  // then on, so their accesses feed the access counters. Promoting a hot
  // region must skip them, as the fault path does.
  for (const std::uint64_t seed : {2u, 3u, 5u, 6u, 7u}) {
    SystemConfig cfg = small_config(8);
    cfg.driver.prefetch_enabled = false;
    cfg.driver.inject.enabled = true;
    cfg.driver.inject.poison_prob = 0.2;
    cfg.driver.recovery.enabled = true;
    cfg.driver.access_counters.enabled = true;
    cfg.driver.access_counters.granularity_pages = 16;
    cfg.driver.access_counters.threshold = 4;
    System system(cfg);
    const auto result = system.run(make_random(16ULL << 20, seed));
    const BatchTotals logged = totals(result.log);
    ASSERT_GT(logged.pages_retired, 0u) << "seed " << seed;
    ASSERT_GT(logged.ctr_pages_promoted, 0u) << "seed " << seed;
    EXPECT_EQ(run_violations(system.driver(), result), kClean)
        << "seed " << seed;
  }
}

TEST(Invariants, OversubscribedRunsConserveUnderParallelServicing) {
  // 48 MB of stream arrays against a 24 MB GPU: eviction active, every
  // policy; capacity and the resident-or-evicted property must hold.
  for (const auto policy : kPolicies) {
    SystemConfig cfg = small_config(24);
    cfg.driver.parallelism = {policy, 8};
    System system(cfg);
    const auto result = system.run(make_stream_triad(2 << 20));
    EXPECT_GT(result.evictions, 0u);
    EXPECT_GT(result.bytes_d2h, 0u);
    EXPECT_EQ(run_violations(system.driver(), result), kClean)
        << "policy " << static_cast<int>(policy);
  }
}

TEST(Invariants, SingleWorkerIsBitIdenticalToSerial) {
  // workers=1 under ANY policy must reproduce the serial baseline
  // bit for bit: same aggregates, same batch log, byte-identical
  // serialized records.
  const auto run_with = [](DriverParallelismConfig parallelism) {
    SystemConfig cfg = small_config();
    cfg.driver.parallelism = parallelism;
    System system(cfg);
    return system.run(make_stream_triad(1 << 16));
  };
  const auto baseline = run_with({ServicingPolicy::kSerial, 1});
  for (const auto policy :
       {ServicingPolicy::kPerVaBlock, ServicingPolicy::kPerSm}) {
    const auto result = run_with({policy, 1});
    EXPECT_EQ(result.kernel_time_ns, baseline.kernel_time_ns);
    EXPECT_EQ(result.batch_time_ns, baseline.batch_time_ns);
    EXPECT_EQ(result.gpu_compute_ns, baseline.gpu_compute_ns);
    EXPECT_EQ(result.total_faults, baseline.total_faults);
    EXPECT_EQ(result.duplicate_emissions, baseline.duplicate_emissions);
    EXPECT_EQ(result.replays, baseline.replays);
    EXPECT_EQ(result.bytes_h2d, baseline.bytes_h2d);
    EXPECT_EQ(result.bytes_d2h, baseline.bytes_d2h);
    ASSERT_EQ(result.log.size(), baseline.log.size());
    for (std::size_t i = 0; i < result.log.size(); ++i) {
      EXPECT_EQ(serialize_batch(result.log[i]),
                serialize_batch(baseline.log[i]))
          << "batch " << i;
    }
  }
}

TEST(Invariants, ParallelServicingNeverSlowsARunDown) {
  // More workers can only shorten batches; the aggregate batch time of a
  // dynamic parallel run never exceeds the serial baseline's.
  SystemConfig cfg = small_config();
  cfg.driver.prefetch_enabled = false;
  System serial_system(cfg);
  const auto serial = serial_system.run(make_stream_triad(1 << 17));
  for (const auto policy :
       {ServicingPolicy::kPerVaBlock, ServicingPolicy::kPerSm}) {
    for (const unsigned workers : {2u, 8u}) {
      SystemConfig par_cfg = cfg;
      par_cfg.driver.parallelism = {policy, workers};
      System system(par_cfg);
      const auto result = system.run(make_stream_triad(1 << 17));
      EXPECT_LE(result.batch_time_ns, serial.batch_time_ns)
          << "policy " << static_cast<int>(policy) << " x" << workers;
      EXPECT_EQ(run_violations(system.driver(), result), kClean)
          << "policy " << static_cast<int>(policy) << " x" << workers;
    }
  }
}

}  // namespace
}  // namespace uvmsim
