// The node shapes compose: System, MultiClientSystem and MultiGpuSystem all
// run core/node's one event chain, so per-run counters, fault injection,
// the recovery ladder and the post-kernel access-counter drain hold on the
// multi-tenant and multi-GPU shapes as they do on one GPU. Runs are judged
// by the shared run oracle (analysis/invariants.hpp).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/invariants.hpp"
#include "core/multi_client.hpp"
#include "core/multi_gpu.hpp"
#include "test_util.hpp"
#include "workloads/peer_share.hpp"

namespace uvmsim {
namespace {

using testutil::small_config;

const std::vector<std::string> kClean;

/// A RunResult's counters agree with its own batch log: every fault the
/// GPUs emitted was fetched by a batch, flushed before a replay or dropped
/// by a full buffer, and every eviction and byte moved is in a record.
void expect_counts_only_its_log(const RunResult& r, const std::string& what) {
  ASSERT_FALSE(r.log.empty()) << what;
  const BatchTotals s = totals(r.log);
  EXPECT_EQ(r.total_faults,
            s.raw_faults + r.faults_flushed + r.faults_dropped_full)
      << what;
  EXPECT_EQ(r.evictions, s.evictions) << what;
  EXPECT_EQ(r.bytes_h2d, s.bytes_h2d) << what;
  EXPECT_EQ(r.bytes_d2h, s.bytes_d2h) << what;
}

SystemConfig two_gpu_config(std::uint64_t gpu_mb) {
  SystemConfig config = small_config(gpu_mb);
  config.driver.multi_gpu.num_gpus = 2;
  config.driver.multi_gpu.topology = TopologyKind::kNvlinkAll;
  return config;
}

/// Two GPUs whose private slices oversubscribe their 8 MB pools.
MultiGpuWorkload oversubscribing_peer_share() {
  PeerShareParams params;
  params.num_gpus = 2;
  params.private_kb_per_gpu = 12 * 1024;
  params.shared_kb = 1024;
  return make_peer_share(params);
}

std::vector<WorkloadSpec> tenant_roster(std::uint32_t n) {
  std::vector<WorkloadSpec> specs;
  for (std::uint32_t i = 0; i < n; ++i) {
    specs.push_back(i % 2 == 0 ? make_stream_triad(1u << 18)
                               : make_random(6u << 20, 11 + i));
  }
  return specs;
}

SystemConfig with_transient_injection(SystemConfig config) {
  auto& inj = config.driver.inject;
  inj.enabled = true;
  inj.seed = 42;
  inj.transfer_error_prob = 0.2;
  inj.storm_prob = 0.1;
  return config;
}

SystemConfig with_fatal_injection(SystemConfig config) {
  auto& inj = config.driver.inject;
  inj.enabled = true;
  inj.seed = 7;
  inj.transfer_error_prob = 0.3;
  inj.ecc_double_bit_prob = 0.01;
  inj.poison_prob = 0.01;
  inj.ce_permanent_prob = 0.5;
  inj.wedge_prob = 0.2;
  inj.wedge_gpu_reset_frac = 0.5;
  config.driver.recovery.enabled = true;
  config.driver.recovery.watchdog_stuck_wakeups = 2;
  return config;
}

TEST(NodeShapes, SecondMultiClientRunReportsOnlyThatRun) {
  SystemConfig config = small_config(8);
  config.driver.prefetch_enabled = false;
  MultiClientSystem multi(config, 2);
  const std::vector<WorkloadSpec> specs = tenant_roster(2);
  const MultiClientResult first = multi.run(specs);
  const MultiClientResult second = multi.run(specs);
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string what = "tenant " + std::to_string(i);
    expect_counts_only_its_log(first.per_client[i], "first run " + what);
    expect_counts_only_its_log(second.per_client[i], "second run " + what);
    EXPECT_GT(second.per_client[i].evictions, 0u) << what;
    EXPECT_EQ(second.per_tenant[i].evictions,
              totals(second.per_client[i].log).evictions)
        << what;
    EXPECT_EQ(second.per_tenant[i].batches, second.per_client[i].log.size())
        << what;
  }
}

TEST(NodeShapes, SecondMultiGpuRunReportsOnlyThatRun) {
  MultiGpuSystem system(two_gpu_config(8));
  const MultiGpuWorkload workload = oversubscribing_peer_share();
  system.run(workload);
  const MultiGpuResult second = system.run(workload);
  expect_counts_only_its_log(second.aggregate, "second run");
  EXPECT_GT(second.aggregate.evictions, 0u);
  // On an all-to-all NVLink fabric every copy crosses exactly one link:
  // host copies its GPU's PCIe link, peer copies one NVLink.
  const BatchTotals s = totals(second.aggregate.log);
  std::uint64_t link_bytes = 0;
  for (const LinkReport& link : second.links) link_bytes += link.bytes;
  EXPECT_EQ(link_bytes, s.bytes_h2d + s.bytes_d2h + s.bytes_peer);
}

TEST(NodeShapes, TransientInjectionFiresAndBalancesOnEveryShape) {
  SystemConfig tenants_config = with_transient_injection(small_config(8));
  tenants_config.driver.prefetch_enabled = false;
  MultiClientSystem multi(tenants_config, 4);
  const MultiClientResult tenants = multi.run(tenant_roster(4));
  std::uint64_t transfer_errors = 0, storm_faults = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const RunResult& r = tenants.per_client[i];
    EXPECT_EQ(run_violations(multi.driver(i), r), kClean) << "tenant " << i;
    transfer_errors += r.injected_transfer_errors;
    storm_faults += r.injected_storm_faults;
  }
  EXPECT_GT(transfer_errors, 0u);
  EXPECT_GT(storm_faults, 0u);

  MultiGpuSystem gpus(with_transient_injection(two_gpu_config(8)));
  const MultiGpuResult fleet = gpus.run(oversubscribing_peer_share());
  EXPECT_EQ(run_violations(gpus.driver(), fleet.aggregate), kClean);
  EXPECT_GT(fleet.aggregate.injected_transfer_errors, 0u);
  EXPECT_GT(fleet.aggregate.injected_storm_faults, 0u);
}

/// Every wedge is cleared by a watchdog channel reset (some escalate to a
/// GPU reset), and the recovery counters match the driver's books.
void expect_recovered(const UvmDriver& driver, const RunResult& r,
                      const std::string& what) {
  EXPECT_EQ(run_violations(driver, r), kClean) << what;
  const BatchTotals logged = totals(r.log);
  EXPECT_GE(logged.channel_resets, r.injected_wedges) << what;
  EXPECT_GE(r.watchdog_stuck_wakeups, r.injected_wedges) << what;
  EXPECT_EQ(logged.channel_resets, driver.recovery().channel_resets())
      << what;
  EXPECT_EQ(logged.gpu_resets, driver.recovery().gpu_resets()) << what;
  EXPECT_EQ(logged.pages_retired, driver.recovery().pages_retired())
      << what;
}

TEST(NodeShapes, FatalInjectionRecoversUnderEightTenants) {
  SystemConfig config = with_fatal_injection(small_config(8));
  config.driver.prefetch_enabled = false;
  MultiClientSystem multi(config, 8);
  const MultiClientResult result = multi.run(tenant_roster(8));
  std::uint64_t wedges = 0, gpu_resets = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const RunResult& r = result.per_client[i];
    EXPECT_GT(result.per_tenant[i].completion_ns, 0u) << "tenant " << i;
    expect_recovered(multi.driver(i), r, "tenant " + std::to_string(i));
    wedges += r.injected_wedges;
    gpu_resets += totals(r.log).gpu_resets;
  }
  EXPECT_GT(wedges, 0u);
  EXPECT_GT(gpu_resets, 0u);
}

TEST(NodeShapes, FatalInjectionRecoversUnderTwoGpus) {
  MultiGpuSystem system(with_fatal_injection(two_gpu_config(8)));
  const MultiGpuResult result = system.run(oversubscribing_peer_share());
  for (const SimTime kernel_ns : result.per_gpu_kernel_ns) {
    EXPECT_GT(kernel_ns, 0u);
  }
  expect_recovered(system.driver(), result.aggregate, "2 GPUs");
  EXPECT_GT(result.aggregate.injected_wedges, 0u);
}

TEST(NodeShapes, MultiGpuRunLeavesNoCounterNotificationPending) {
  // A low threshold on an NVLink fabric: peer-mapped shared blocks keep
  // raising notifications up to the last GPU window, so some are still
  // buffered when the kernels end. The post-kernel drain services them in
  // one counter-only record.
  SystemConfig config = two_gpu_config(8);
  config.driver.prefetch_enabled = false;
  config.driver.big_page_promotion = false;
  config.driver.access_counters.enabled = true;
  config.driver.access_counters.granularity_pages = 16;
  config.driver.access_counters.threshold = 2;
  PeerShareParams params;
  params.num_gpus = 2;
  params.private_kb_per_gpu = 2048;
  params.shared_kb = 1024;
  params.sweeps = 2;
  MultiGpuSystem system(config);
  const MultiGpuResult result = system.run(make_peer_share(params));
  const RunResult& r = result.aggregate;
  EXPECT_GT(r.counter_notifications, 0u);
  EXPECT_EQ(r.counter_notifications, totals(r.log).ctr_notifications);
  ASSERT_FALSE(r.log.empty());
  EXPECT_EQ(r.log.back().counters.raw_faults, 0u);
  EXPECT_GT(r.log.back().counters.ctr_notifications, 0u);
  EXPECT_EQ(run_violations(system.driver(), r), kClean);
}

}  // namespace
}  // namespace uvmsim
