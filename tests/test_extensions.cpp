// Tests for the Section 6 driver extensions: adaptive batch sizing,
// asynchronous host-OS operations, and per-VABlock service-time detail.
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace uvmsim {
namespace {

SystemConfig base_config() {
  SystemConfig cfg = presets::scaled_titan_v(256);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  return cfg;
}

TEST(AdaptiveBatch, DisabledKeepsConfiguredSize) {
  SystemConfig cfg = base_config();
  System system(cfg);
  system.run(make_stream_triad(1 << 15));
  EXPECT_EQ(system.driver().effective_batch_size(), cfg.driver.batch_size);
}

TEST(AdaptiveBatch, GrowsOnDuplicateScarceWorkloads) {
  // Regular has almost no duplicates: the controller should grow the
  // effective batch size toward the max.
  SystemConfig cfg = base_config();
  cfg.driver.adaptive_batch_size = true;
  System system(cfg);
  system.run(make_regular(64ULL << 20, 4, 160, 2));
  EXPECT_GT(system.driver().effective_batch_size(), cfg.driver.batch_size);
}

TEST(AdaptiveBatch, ShrinksUnderDuplicateFloods) {
  // Drive the controller directly with duplicate-heavy batches (every
  // fault targets one page): it must halve toward the minimum.
  DriverConfig dcfg;
  dcfg.adaptive_batch_size = true;
  dcfg.prefetch_enabled = false;
  UvmDriver driver(dcfg, 256ULL << 20, 80);
  driver.managed_alloc(16ULL << 20, "a", HostInit::single());

  std::vector<FaultRecord> flood(128);
  for (std::size_t i = 0; i < flood.size(); ++i) {
    flood[i].page = 0;  // all duplicates of one page
    flood[i].sm = static_cast<std::uint32_t>(i % 80);
    flood[i].utlb = flood[i].sm / 2;
  }
  const auto before = driver.effective_batch_size();
  driver.handle_batch(flood, 0);
  driver.handle_batch(flood, 1'000'000);
  EXPECT_LT(driver.effective_batch_size(), before);
  for (int i = 0; i < 10; ++i) {
    driver.handle_batch(flood, 2'000'000 + i * 1'000'000);
  }
  EXPECT_EQ(driver.effective_batch_size(), dcfg.adaptive_min_batch);
}

TEST(AdaptiveBatch, RespectsBounds) {
  SystemConfig cfg = base_config();
  cfg.driver.adaptive_batch_size = true;
  cfg.driver.adaptive_min_batch = 128;
  cfg.driver.adaptive_max_batch = 512;
  cfg.gpu.dup_same_utlb_prob = 0.95;
  System system(cfg);
  system.run(make_stream_triad(1 << 17));
  const auto size = system.driver().effective_batch_size();
  EXPECT_GE(size, 128u);
  EXPECT_LE(size, 512u);
}

TEST(AdaptiveBatch, StillCompletesAndStaysConsistent) {
  SystemConfig cfg = base_config();
  cfg.driver.adaptive_batch_size = true;
  System system(cfg);
  const auto result = system.run(make_stream_triad(1 << 16));
  EXPECT_GT(result.log.size(), 0u);
  for (const auto& rec : result.log) {
    EXPECT_LE(rec.counters.raw_faults, cfg.driver.adaptive_max_batch);
  }
}

TEST(AsyncHostOps, RemovesUnmapAndDmaFromCriticalPath) {
  SystemConfig sync_cfg = base_config();
  System sync_system(sync_cfg);
  const auto sync_run = sync_system.run(make_stream_triad(1 << 16));

  SystemConfig async_cfg = base_config();
  async_cfg.driver.async_host_ops = true;
  System async_system(async_cfg);
  const auto async_run = async_system.run(make_stream_triad(1 << 16));

  EXPECT_LT(async_run.kernel_time_ns, sync_run.kernel_time_ns);
  EXPECT_GT(async_system.driver().async_background_time(), 0u);
  EXPECT_EQ(sync_system.driver().async_background_time(), 0u);
}

TEST(AsyncHostOps, PhaseTimersStillAccountTheWork) {
  SystemConfig cfg = base_config();
  cfg.driver.async_host_ops = true;
  System system(cfg);
  const auto result = system.run(make_stream_triad(1 << 16));
  SimTime unmap_total = 0, dma_total = 0;
  for (const auto& rec : result.log) {
    unmap_total += rec.phases.unmap_ns;
    dma_total += rec.phases.dma_map_ns;
    // Batch duration excludes the async phases...
    EXPECT_EQ(rec.duration_ns() + rec.phases.unmap_ns +
                  rec.phases.dma_map_ns,
              rec.phases.sum());
  }
  // ...but the work itself is still recorded and billed to background.
  EXPECT_GT(unmap_total + dma_total, 0u);
  EXPECT_EQ(system.driver().async_background_time(), unmap_total + dma_total);
}

TEST(VaBlockServiceDetail, RecordedTimesSumWithinBatchDuration) {
  SystemConfig cfg = base_config();
  System system(cfg);
  const auto result = system.run(make_stream_triad(1 << 16));
  for (const auto& rec : result.log) {
    SimTime blocks_total = 0;
    for (const auto& [block, time] : rec.vablock_service_ns) {
      blocks_total += time;
    }
    EXPECT_LE(blocks_total, rec.duration_ns());
    EXPECT_EQ(rec.vablock_service_ns.size(), rec.vablock_faults.size());
  }
}

}  // namespace
}  // namespace uvmsim
