// Ablations over the driver's policy knobs (DESIGN.md §6).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "core/multi_client.hpp"
#include "core/multi_gpu.hpp"
#include "core/system.hpp"

namespace uvmsim {
namespace {

SystemConfig base_config() {
  SystemConfig cfg = presets::scaled_titan_v(128);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  return cfg;
}

class BatchSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BatchSizeSweep, CompletesAndRespectsCap) {
  SystemConfig cfg = base_config();
  cfg.driver.batch_size = GetParam();
  System system(cfg);
  const auto result = system.run(make_stream_triad(1 << 16));
  EXPECT_GT(result.log.size(), 0u);
  for (const auto& rec : result.log) {
    EXPECT_LE(rec.counters.raw_faults, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchSizeSweep,
                         ::testing::Values(32, 64, 128, 256, 512, 1024, 2048,
                                           6144));

TEST(BatchSizePolicy, LargerBatchesMeanFewerBatches) {
  // Fig 9's mechanism: bigger caps amortize per-batch overhead.
  auto run_with = [](std::uint32_t batch_size) {
    SystemConfig cfg = base_config();
    cfg.driver.batch_size = batch_size;
    System system(cfg);
    return system.run(make_stream_triad(1 << 17));
  };
  const auto small = run_with(64);
  const auto large = run_with(1024);
  EXPECT_GT(small.log.size(), large.log.size());
  EXPECT_GT(small.kernel_time_ns, large.kernel_time_ns);
}

TEST(BatchSizePolicy, UniqueFaultsPerBatchSaturate) {
  // §4.2: unique faults per batch are capped by fault generation, not by
  // the batch-size knob, so very large caps stop helping.
  // Steady-state mean (the launch burst can fill one giant batch, so the
  // first few batches are excluded, as the paper's "average across the
  // test" effectively amortizes them).
  // Measured on the saturating Regular microbenchmark, whose per-window
  // supply exceeds every cap (a paced app would be arrival-limited and
  // trivially flat).
  auto mean_unique = [](std::uint32_t batch_size) {
    SystemConfig cfg = base_config();
    cfg.driver.batch_size = batch_size;
    System system(cfg);
    const auto result = system.run(make_regular(128ULL << 20, 4, 320, 2));
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = 3; i < result.log.size(); ++i) {
      sum += result.log[i].counters.unique_faults;
      ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };
  const double at_2048 = mean_unique(2048);
  const double at_6144 = mean_unique(6144);
  EXPECT_LT(at_6144, at_2048 * 1.25)
      << "unique faults kept growing past the generation limit";
  // And the generation cap itself: steady state stays within the token
  // budget (80 SMs x 8 tokens) plus slack for duplicates surviving dedup.
  EXPECT_LT(at_6144, 800.0);
}

TEST(FlushPolicy, NoFlushStillCompletes) {
  SystemConfig cfg = base_config();
  cfg.driver.flush_on_replay = false;
  System system(cfg);
  const auto result = system.run(make_vecadd_coalesced(1 << 14));
  EXPECT_GT(result.log.size(), 0u);
  EXPECT_GT(system.driver().va_space().gpu_resident_pages(), 0u);
}

TEST(FlushPolicy, FlushDropsBufferedFaults) {
  SystemConfig with_flush = base_config();
  System a(with_flush);
  a.run(make_vecadd_coalesced(1 << 15));
  // The initial fault burst exceeds one batch, so the pre-replay flush
  // must have discarded buffered faults.
  EXPECT_GT(a.gpu().fault_buffer().total_flushed(), 0u);

  SystemConfig no_flush = base_config();
  no_flush.driver.flush_on_replay = false;
  System b(no_flush);
  b.run(make_vecadd_coalesced(1 << 15));
  EXPECT_EQ(b.gpu().fault_buffer().total_flushed(), 0u);
}

TEST(EvictPolicyAblation, LruAndFifoBothComplete) {
  for (const EvictPolicy policy : {EvictPolicy::kLru, EvictPolicy::kFifo}) {
    SystemConfig cfg = presets::scaled_titan_v(16);
    cfg.driver.prefetch_enabled = false;
    cfg.driver.big_page_promotion = false;
    cfg.driver.evict_policy = policy;
    System system(cfg);
    const auto result = system.run(make_stream_triad(1 << 20));  // 24 MB
    EXPECT_GT(result.evictions, 0u);
    EXPECT_LE(system.driver().va_space().gpu_resident_pages() * kPageSize,
              cfg.gpu.memory_bytes);
  }
}

TEST(PrefetchThreshold, LowerThresholdPrefetchesMore) {
  auto prefetched_pages = [](double threshold) {
    SystemConfig cfg = presets::scaled_titan_v(256);
    cfg.driver.prefetch_threshold = threshold;
    System system(cfg);
    const auto result = system.run(make_stream_triad(1 << 17));
    std::uint64_t total = 0;
    for (const auto& rec : result.log) {
      total += rec.counters.pages_prefetched;
    }
    return total;
  };
  EXPECT_GE(prefetched_pages(0.2), prefetched_pages(0.9));
}

TEST(DuplicateModel, HigherDupProbabilityInflatesRawFaults) {
  auto dup_ratio = [](double prob) {
    SystemConfig cfg = base_config();
    cfg.gpu.dup_same_utlb_prob = prob;
    System system(cfg);
    const auto result = system.run(make_stream_triad(1 << 16));
    std::uint64_t raw = 0, unique = 0;
    for (const auto& rec : result.log) {
      raw += rec.counters.raw_faults;
      unique += rec.counters.unique_faults;
    }
    return static_cast<double>(raw) / static_cast<double>(unique);
  };
  EXPECT_GT(dup_ratio(0.9), dup_ratio(0.0));
}

TEST(RecordingToggles, DetailVectorsCanBeDisabled) {
  SystemConfig cfg = base_config();
  cfg.driver.record_per_sm_counts = false;
  cfg.driver.record_vablock_detail = false;
  System system(cfg);
  const auto result = system.run(make_vecadd_coalesced(1 << 14));
  for (const auto& rec : result.log) {
    EXPECT_TRUE(rec.faults_per_sm.empty());
    EXPECT_TRUE(rec.vablock_faults.empty());
    EXPECT_TRUE(rec.first_touch_blocks.empty());
    EXPECT_TRUE(rec.evicted_blocks.empty());
  }
}

// Configs no run can complete are rejected when the driver is built, not
// discovered as a livelock (a zero fetch limit services empty batches
// forever) or an abort (no chunk to back the first fault).
TEST(ConfigValidation, DriverRejectsConfigsNoRunCanComplete) {
  const auto build = [](DriverConfig cfg, std::uint64_t gpu_bytes) {
    UvmDriver driver(std::move(cfg), gpu_bytes, 80);
  };
  const std::uint64_t bytes = 64 * kVaBlockSize;
  EXPECT_NO_THROW(build(DriverConfig{}, bytes));
  EXPECT_NO_THROW(build(DriverConfig{}, kVaBlockSize));  // one chunk is enough

  DriverConfig zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(build(zero_batch, bytes), std::invalid_argument);

  DriverConfig adaptive;
  adaptive.adaptive_batch_size = true;
  adaptive.adaptive_min_batch = 0;
  EXPECT_THROW(build(adaptive, bytes), std::invalid_argument);
  adaptive.adaptive_min_batch = 1;
  adaptive.adaptive_max_batch = 0;
  EXPECT_THROW(build(adaptive, bytes), std::invalid_argument);
  adaptive.adaptive_batch_size = false;  // the bounds are inert when off
  EXPECT_NO_THROW(build(adaptive, bytes));

  DriverConfig no_gpus;
  no_gpus.multi_gpu.num_gpus = 0;
  EXPECT_THROW(build(no_gpus, bytes), std::invalid_argument);

  EXPECT_THROW(build(DriverConfig{}, 0), std::invalid_argument);
  EXPECT_THROW(build(DriverConfig{}, kVaBlockSize - 1), std::invalid_argument);
}

TEST(ConfigValidation, EveryNodeShapeSurfacesTheRejection) {
  SystemConfig cfg = base_config();
  cfg.gpu.memory_bytes = 1 << 20;  // half a chunk
  EXPECT_THROW(System{cfg}, std::invalid_argument);
  EXPECT_THROW(MultiClientSystem(cfg, 4), std::invalid_argument);
  cfg.driver.multi_gpu.num_gpus = 2;
  EXPECT_THROW(MultiGpuSystem{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace uvmsim
