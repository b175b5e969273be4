// Differential test for the MetricsRegistry mirror: every `driver.*`
// counter and `phase.*_ns` total published by UvmDriver must equal the
// corresponding sum over the legacy per-batch log, bit for bit — on the
// golden vecadd workload and across fuzzed seeds/policies, with and
// without fault injection. The batch log is the ground truth; the
// registry is its cross-layer aggregation and may never drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_gpu.hpp"
#include "core/system.hpp"
#include "test_util.hpp"

namespace uvmsim {
namespace {

using testutil::FuzzCase;
using testutil::make_fuzz_case;
using testutil::make_injected_fuzz_case;
using testutil::small_config;

constexpr std::uint64_t kSeeds = 20;

const std::vector<ServicingPolicy> kPolicies{
    ServicingPolicy::kSerial, ServicingPolicy::kPerVaBlock,
    ServicingPolicy::kPerSm};

/// (metric name, per-batch value) for every field the driver mirrors,
/// written out by hand: the independent oracle for the mirror that
/// uvm/batch.hpp's field list generates.
std::vector<std::pair<const char*, std::uint64_t>> mirrored_fields(
    const BatchRecord& rec) {
  const auto& c = rec.counters;
  const auto& p = rec.phases;
  return {
      {"driver.batches", 1},
      {"driver.batch_time_ns", rec.duration_ns()},
      {"driver.raw_faults", c.raw_faults},
      {"driver.unique_faults", c.unique_faults},
      {"driver.dup_same_utlb", c.dup_same_utlb},
      {"driver.dup_cross_utlb", c.dup_cross_utlb},
      {"driver.read_faults", c.read_faults},
      {"driver.write_faults", c.write_faults},
      {"driver.prefetch_faults", c.prefetch_faults},
      {"driver.vablocks_touched", c.vablocks_touched},
      {"driver.first_touch_vablocks", c.first_touch_vablocks},
      {"driver.pages_migrated", c.pages_migrated},
      {"driver.pages_populated", c.pages_populated},
      {"driver.pages_prefetched", c.pages_prefetched},
      {"driver.bytes_h2d", c.bytes_h2d},
      {"driver.bytes_d2h", c.bytes_d2h},
      {"driver.evictions", c.evictions},
      {"driver.unmap_calls", c.unmap_calls},
      {"driver.pages_unmapped", c.pages_unmapped},
      {"driver.dma_pages_mapped", c.dma_pages_mapped},
      {"driver.radix_nodes_allocated", c.radix_nodes_allocated},
      {"driver.radix_growth_batches", c.radix_grew ? 1u : 0u},
      {"driver.transfer_errors", c.transfer_errors},
      {"driver.transfer_retries", c.transfer_retries},
      {"driver.dma_map_errors", c.dma_map_errors},
      {"driver.dma_map_retries", c.dma_map_retries},
      {"driver.service_aborts", c.service_aborts},
      {"driver.thrash_pins", c.thrash_pins},
      {"driver.thrash_throttles", c.thrash_throttles},
      {"driver.buffer_dropped", c.buffer_dropped},
      {"driver.faults_cancelled", c.faults_cancelled},
      {"driver.pages_retired", c.pages_retired},
      {"driver.chunks_retired", c.chunks_retired},
      {"driver.channel_resets", c.channel_resets},
      {"driver.gpu_resets", c.gpu_resets},
      {"driver.ctr_notifications", c.ctr_notifications},
      {"driver.ctr_dropped", c.ctr_dropped},
      {"driver.ctr_pages_promoted", c.ctr_pages_promoted},
      {"driver.ctr_unpins", c.ctr_unpins},
      {"driver.ctr_evictions", c.ctr_evictions},
      {"driver.peer_pages_migrated", c.peer_pages_migrated},
      {"driver.bytes_peer", c.bytes_peer},
      {"driver.peer_maps", c.peer_maps},
      {"driver.peer_placements", c.peer_placements},
      {"phase.fetch_ns", p.fetch_ns},
      {"phase.dedup_ns", p.dedup_ns},
      {"phase.vablock_ns", p.vablock_ns},
      {"phase.eviction_ns", p.eviction_ns},
      {"phase.unmap_ns", p.unmap_ns},
      {"phase.populate_ns", p.populate_ns},
      {"phase.dma_map_ns", p.dma_map_ns},
      {"phase.prefetch_ns", p.prefetch_ns},
      {"phase.transfer_ns", p.transfer_ns},
      {"phase.pagetable_ns", p.pagetable_ns},
      {"phase.replay_ns", p.replay_ns},
      {"phase.backoff_ns", p.backoff_ns},
      {"phase.throttle_ns", p.throttle_ns},
      {"phase.counter_ns", p.counter_ns},
      {"phase.recovery_ns", p.recovery_ns},
  };
}

/// Assert registry == batch-log sums exactly, and that the registry's
/// `driver.*` and `phase.*` counter names are exactly the table's. Returns
/// the sums.
std::map<std::string, std::uint64_t> expect_registry_matches_log(
    const MetricsRegistry& metrics, const BatchLog& log,
    const std::string& label) {
  std::map<std::string, std::uint64_t> expected;
  EXPECT_FALSE(log.empty()) << label;
  if (log.empty()) return expected;
  for (const auto& rec : log) {
    for (const auto& [name, value] : mirrored_fields(rec)) {
      expected[name] += value;
    }
  }
  for (const auto& [name, want] : expected) {
    EXPECT_EQ(metrics.counter(name), want) << label << ": " << name;
  }
  std::set<std::string> mirrored;
  for (const auto& [name, value] : metrics.counters()) {
    if (name.starts_with("driver.") || name.starts_with("phase.")) {
      mirrored.insert(name);
    }
  }
  std::set<std::string> table;
  for (const auto& [name, value] : expected) table.insert(name);
  EXPECT_EQ(mirrored, table) << label;

  // The per-batch histograms must have seen every batch.
  const Log2Histogram* durations = metrics.histogram("batch.duration_ns");
  EXPECT_NE(durations, nullptr) << label;
  if (durations) {
    EXPECT_EQ(durations->total(), log.size()) << label;
    std::uint64_t duration_sum = 0;
    for (const auto& rec : log) duration_sum += rec.duration_ns();
    EXPECT_EQ(durations->sum(), duration_sum) << label;
  }

  // The adaptive batch-size gauge is published and stays positive.
  EXPECT_GT(metrics.gauge("driver.effective_batch_size"), 0) << label;
  return expected;
}

/// Run with metrics on and assert registry == batch-log sums exactly.
void check_registry_matches_log(SystemConfig cfg, const WorkloadSpec& spec,
                                const std::string& label) {
  cfg.obs.metrics = true;
  System system(cfg);
  const auto result = system.run(spec);
  expect_registry_matches_log(system.metrics(), result.log, label);
}

TEST(Metrics, RegistryMatchesBatchLogOnGoldenWorkload) {
  check_registry_matches_log(small_config(256), make_vecadd_paged(),
                             "vecadd-paged/titanv256");
}

TEST(Metrics, RegistryMatchesBatchLogAcrossFuzzedSeedsAndPolicies) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = make_fuzz_case(seed);
    for (const auto policy : kPolicies) {
      SystemConfig cfg = c.config;
      cfg.driver.parallelism.policy = policy;
      check_registry_matches_log(
          cfg, c.spec,
          "seed " + std::to_string(seed) + " policy " +
              std::to_string(static_cast<int>(policy)));
    }
  }
}

TEST(Metrics, RegistryMatchesBatchLogUnderInjectedFaults) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = make_injected_fuzz_case(seed);
    check_registry_matches_log(c.config, c.spec,
                               "injected seed " + std::to_string(seed));
  }
}

TEST(Metrics, RegistryMatchesBatchLogWithAccessCounters) {
  // The counter-servicing mirror (driver.ctr_* / phase.counter_ns) must
  // track the log exactly while the promotion path is actually firing.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const FuzzCase c = testutil::make_counter_fuzz_case(seed);
    check_registry_matches_log(c.config, c.spec,
                               "counter seed " + std::to_string(seed));
  }
}

TEST(Metrics, RegistryMatchesBatchLogOnNvlinkRing) {
  // Four GPUs on an NVLink ring, each with more private data than its
  // HBM: the shared driver migrates pages peer to peer, remote-maps peer
  // blocks and places blocks in peer HBM, so every peer counter moves.
  SystemConfig cfg = small_config(4);
  cfg.obs.metrics = true;
  cfg.driver.prefetch_enabled = false;
  cfg.driver.multi_gpu.num_gpus = 4;
  cfg.driver.multi_gpu.topology = TopologyKind::kNvlinkRing;
  PeerShareParams params;
  params.num_gpus = 4;
  params.private_kb_per_gpu = 6144;
  params.shared_kb = 2048;
  MultiGpuSystem system(cfg);
  const MultiGpuResult result = system.run(make_peer_share(params));
  const auto sums = expect_registry_matches_log(
      system.metrics(), result.aggregate.log, "nvlink-ring x4");
  for (const char* name :
       {"driver.peer_pages_migrated", "driver.bytes_peer", "driver.peer_maps",
        "driver.peer_placements"}) {
    EXPECT_GT(sums.at(name), 0u) << name;
  }
}

TEST(Metrics, MetricsDoNotPerturbTheSimulation) {
  // Like the tracer, the registry only observes: enabling it must leave
  // the batch log bit-identical.
  const FuzzCase c = make_injected_fuzz_case(7);
  System plain(c.config);
  const auto baseline = plain.run(c.spec);

  SystemConfig cfg = c.config;
  cfg.obs.metrics = true;
  System instrumented(cfg);
  const auto result = instrumented.run(c.spec);

  ASSERT_EQ(result.log.size(), baseline.log.size());
  EXPECT_EQ(result.kernel_time_ns, baseline.kernel_time_ns);
  EXPECT_EQ(result.batch_time_ns, baseline.batch_time_ns);
  EXPECT_EQ(result.total_faults, baseline.total_faults);
}

TEST(Metrics, DisabledMetricsLeaveRegistryEmpty) {
  SystemConfig cfg = small_config();
  System system(cfg);  // obs.metrics defaults to off
  const auto result = system.run(make_vecadd_paged());
  ASSERT_FALSE(result.log.empty());
  EXPECT_TRUE(system.metrics().empty());
}

TEST(Metrics, IdenticalRunsProduceIdenticalRegistries) {
  const FuzzCase c = make_injected_fuzz_case(3);
  SystemConfig cfg = c.config;
  cfg.obs.metrics = true;
  System a(cfg);
  a.run(c.spec);
  System b(cfg);
  b.run(c.spec);
  EXPECT_EQ(a.metrics().counters(), b.metrics().counters());
  EXPECT_EQ(a.metrics().gauges(), b.metrics().gauges());
  EXPECT_TRUE(a.metrics().histograms() == b.metrics().histograms());
}

}  // namespace
}  // namespace uvmsim
