// Tests of the metrics snapshot (Node::metrics). Every `driver.*` counter
// and `phase.*_ns` total it publishes must equal the corresponding sum over
// the per-batch log, bit for bit — on the golden vecadd workload and across
// fuzzed seeds/policies, with and without fault injection. The batch log is
// the ground truth; the snapshot is read from it after the run and may
// never drift. The snapshot also covers the node's whole life (a second
// run adds to it), and on a node with several sources its gauges sum over
// the node.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_client.hpp"
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

/// (metric name, per-batch value) for every field the snapshot reads from
/// the log, written out by hand: the independent oracle for the names and
/// sums that uvm/batch.hpp's field list generates.
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

/// Assert the snapshot's `driver.*` and `phase.*` counters are exactly the
/// table's names, each equal to its batch-log sum. Returns the sums.
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
  std::map<std::string, std::uint64_t> published;
  for (const auto& [name, value] : metrics.counters) {
    if (name.starts_with("driver.") || name.starts_with("phase.")) {
      published.emplace(name, value);
    }
  }
  EXPECT_EQ(published, expected) << label;

  // The per-batch histograms must have seen every batch.
  const auto durations = metrics.histograms.find("batch.duration_ns");
  EXPECT_NE(durations, metrics.histograms.end()) << label;
  if (durations != metrics.histograms.end()) {
    EXPECT_EQ(durations->second.total(), log.size()) << label;
    std::uint64_t duration_sum = 0;
    for (const auto& rec : log) duration_sum += rec.duration_ns();
    EXPECT_EQ(durations->second.sum(), duration_sum) << label;
  }

  // The adaptive batch-size gauge is published and stays positive.
  const auto batch_size = metrics.gauges.find("driver.effective_batch_size");
  EXPECT_NE(batch_size, metrics.gauges.end()) << label;
  if (batch_size != metrics.gauges.end()) {
    EXPECT_GT(batch_size->second, 0) << label;
  }
  return expected;
}

/// Run and assert snapshot == batch-log sums exactly.
void check_registry_matches_log(const SystemConfig& cfg,
                                const WorkloadSpec& spec,
                                const std::string& label) {
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

TEST(Metrics, IdenticalRunsProduceIdenticalRegistries) {
  const FuzzCase c = make_injected_fuzz_case(3);
  System a(c.config);
  a.run(c.spec);
  System b(c.config);
  b.run(c.spec);
  const MetricsRegistry ma = a.metrics();
  const MetricsRegistry mb = b.metrics();
  EXPECT_EQ(ma.counters, mb.counters);
  EXPECT_EQ(ma.gauges, mb.gauges);
  EXPECT_TRUE(ma.histograms == mb.histograms);
}

/// One expected snapshot counter; with `present` false, the name must be
/// absent.
struct Expect {
  const char* name;
  std::uint64_t value;
  bool present = true;
};

void expect_counters(const MetricsRegistry& m,
                     std::initializer_list<Expect> want,
                     const std::string& label) {
  for (const Expect& e : want) {
    const auto it = m.counters.find(e.name);
    if (!e.present) {
      EXPECT_EQ(it, m.counters.end()) << label << ": " << e.name;
      continue;
    }
    ASSERT_NE(it, m.counters.end()) << label << ": " << e.name;
    EXPECT_EQ(it->second, e.value) << label << ": " << e.name;
  }
}

void expect_histogram(const MetricsRegistry& m, const char* name,
                      std::uint64_t count, std::uint64_t sum,
                      const std::string& label) {
  const auto it = m.histograms.find(name);
  ASSERT_NE(it, m.histograms.end()) << label << ": " << name;
  EXPECT_EQ(it->second.total(), count) << label << ": " << name;
  EXPECT_EQ(it->second.sum(), sum) << label << ": " << name;
}

// The snapshot covers the node's whole life: a second run on the same
// System or MultiClientSystem adds to every counter, and a name first
// earned in the second run appears only then. The expected values were
// recorded by an independent implementation that added into a registry
// during the runs.
TEST(Metrics, SnapshotAccumulatesAcrossRuns) {
  const FuzzCase c = testutil::make_counter_fuzz_case(1);
  System system(c.config);
  system.run(c.spec);
  MetricsRegistry m = system.metrics();
  expect_counters(m,
                  {{"sim.runs", 1},
                   {"sim.interrupts", 1},
                   {"sim.kernel_time_ns", 65924440},
                   {"sim.counter_interrupts", 0, false},
                   {"driver.batches", 54},
                   {"gpu.faults_emitted", 53827},
                   {"gpu.warp_visits", 42539},
                   {"copy.dma_ops", 7907},
                   {"copy.bytes_h2d", 82956288},
                   {"counter.passes", 30},
                   {"counter.service_ns", 14485844},
                   {"counter.dropped", 0, false},
                   {"dma.map_calls", 12},
                   {"dma.radix_nodes", 99},
                   {"dma.radix_height_growths", 2}},
                  "system run 1");
  EXPECT_EQ(m.gauges.at("gpu.blocks_retired"), 320);
  expect_histogram(m, "copy.run_pages", 7907, 39528, "system run 1");

  system.run(c.spec);
  m = system.metrics();
  expect_counters(m,
                  {{"sim.runs", 2},
                   {"sim.interrupts", 2},
                   {"sim.kernel_time_ns", 98182707},
                   {"sim.counter_interrupts", 1},
                   {"driver.batches", 64},
                   {"gpu.faults_emitted", 62787},
                   {"gpu.warp_visits", 48939},
                   {"copy.dma_ops", 8931},
                   {"copy.bytes_h2d", 111161344},
                   {"counter.passes", 36},
                   {"counter.service_ns", 23709732},
                   {"counter.dropped", 0, false},
                   {"dma.map_calls", 24},
                   {"dma.radix_nodes", 196},
                   {"dma.radix_height_growths", 2}},
                  "system run 2");
  EXPECT_EQ(m.gauges.at("gpu.blocks_retired"), 640);
  EXPECT_EQ(m.gauges.at("dma.mapped_pages"), 12288);
  expect_histogram(m, "copy.run_pages", 8931, 53798, "system run 2");
  expect_histogram(m, "batch.duration_ns", 64, 62397795, "system run 2");

  MultiClientSystem tenants(small_config(8), 2);
  const std::vector<WorkloadSpec> specs{make_random(6 << 20, 1),
                                        make_stream_triad(1 << 17)};
  tenants.run(specs);
  m = tenants.metrics();
  expect_counters(m,
                  {{"sim.runs", 1},
                   {"sim.interrupts", 3},
                   {"driver.batches", 3},
                   {"gpu.faults_emitted", 7048},
                   {"copy.dma_ops", 6},
                   {"copy.bytes_d2h", 0, false},
                   {"tenant.0000.service_ns", 2487146},
                   {"tenant.0000.evictions", 0},
                   {"tenant.0001.grants", 2},
                   {"tenant.0001.lock_wait_ns", 2486795}},
                  "tenants run 1");

  tenants.run(specs);
  m = tenants.metrics();
  expect_counters(m,
                  {{"sim.runs", 2},
                   {"sim.interrupts", 6},
                   {"driver.batches", 7},
                   {"gpu.faults_emitted", 14401},
                   {"copy.dma_ops", 18},
                   {"copy.bytes_d2h", 6291456},
                   {"tenant.0000.service_ns", 5376196},
                   {"tenant.0000.evictions", 2},
                   {"tenant.0001.grants", 4},
                   {"tenant.0001.lock_wait_ns", 5374837}},
                  "tenants run 2");
  expect_histogram(m, "copy.run_pages", 18, 6144, "tenants run 2");
}

// On a node with several engines or drivers, a gauge describes the node:
// engine gauges and dma.mapped_pages sum over it, and
// driver.effective_batch_size is the largest over its drivers.
TEST(Metrics, MultiSourceGaugesSumOverTheNode) {
  SystemConfig cfg = small_config(4);
  cfg.driver.multi_gpu.num_gpus = 2;
  MultiGpuSystem gpus(cfg);
  gpus.run(make_peer_share(PeerShareParams{}));
  MetricsRegistry m = gpus.metrics();
  const std::int64_t retired = static_cast<std::int64_t>(
      gpus.gpu(0).blocks_retired() + gpus.gpu(1).blocks_retired());
  EXPECT_GT(gpus.gpu(1).blocks_retired(), 0u);
  EXPECT_EQ(m.gauges.at("gpu.blocks_retired"), retired);
  EXPECT_EQ(m.gauges.at("gpu.active_warps"),
            gpus.gpu(0).active_warps() + gpus.gpu(1).active_warps());
  EXPECT_EQ(m.gauges.at("dma.mapped_pages"),
            static_cast<std::int64_t>(gpus.driver().dma().mapped_pages()));

  SystemConfig tcfg = small_config(8);
  tcfg.driver.adaptive_batch_size = true;
  MultiClientSystem tenants(tcfg, 2);
  tenants.run({make_random(6 << 20, 1), make_stream_triad(1 << 17)});
  m = tenants.metrics();
  const std::int64_t size0 = tenants.driver(0).effective_batch_size();
  const std::int64_t size1 = tenants.driver(1).effective_batch_size();
  ASSERT_NE(size0, size1);  // else the largest is indistinguishable
  EXPECT_EQ(m.gauges.at("driver.effective_batch_size"),
            std::max(size0, size1));
  const auto mapped0 = tenants.driver(0).dma().mapped_pages();
  const auto mapped1 = tenants.driver(1).dma().mapped_pages();
  ASSERT_GT(mapped0, 0u);
  ASSERT_GT(mapped1, 0u);
  EXPECT_EQ(m.gauges.at("dma.mapped_pages"),
            static_cast<std::int64_t>(mapped0 + mapped1));
}

}  // namespace
}  // namespace uvmsim
