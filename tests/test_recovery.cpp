// Fatal-fault containment and the recovery ladder (uvm/recovery.hpp):
//
//   * the component mechanics — chunk blacklisting in GpuMemory, page
//     retirement masks in VaBlockState, the wedged fault buffer, and the
//     injector's fatal-class streams;
//   * the end-to-end ladder — each fatal class contained by its tier with
//     the run completing, the books balancing, and conservation holding;
//   * the zero-cost-off and determinism contracts the golden fixtures and
//     replay suites rely on.
#include <gtest/gtest.h>

#include "analysis/log_io.hpp"
#include "analysis/summary.hpp"
#include "common/fault_inject.hpp"
#include "core/system.hpp"
#include "gpu/fault_buffer.hpp"
#include "test_util.hpp"

namespace uvmsim {
namespace {

using testutil::small_config;

// ---- GpuMemory chunk blacklisting -----------------------------------------

TEST(ChunkRetirement, RetiredChunksLeaveTheUsablePoolForever) {
  GpuMemory mem(8 * kVaBlockSize);  // 8 chunks
  ASSERT_EQ(mem.total_chunks(), 8u);
  const auto a = mem.alloc_chunk();
  const auto b = mem.alloc_chunk();
  ASSERT_TRUE(a && b);

  ASSERT_TRUE(mem.retire_chunk(*a));
  EXPECT_TRUE(mem.is_retired(*a));
  EXPECT_EQ(mem.retired_chunks(), 1u);
  // Capacity shrank and the chunk is no longer counted in use.
  EXPECT_EQ(mem.total_chunks(), 7u);
  EXPECT_EQ(mem.chunks_in_use(), 1u);

  // A retired chunk can be neither freed nor retired again.
  EXPECT_FALSE(mem.free_chunk(*a));
  EXPECT_FALSE(mem.retire_chunk(*a));
  // Unallocated and out-of-range chunks cannot be retired.
  EXPECT_FALSE(mem.retire_chunk(7));
  EXPECT_FALSE(mem.retire_chunk(1000));

  // Drain the pool: the retired chunk id must never be handed out again.
  std::uint64_t handed_out = 0;
  while (const auto c = mem.alloc_chunk()) {
    EXPECT_NE(*c, *a);
    ++handed_out;
  }
  EXPECT_EQ(handed_out, 6u);  // 8 physical - 1 retired - 1 still held (b)
  EXPECT_TRUE(mem.full());
  EXPECT_TRUE(mem.free_chunk(*b));
  EXPECT_EQ(mem.free_chunks(), 1u);
}

// ---- VaBlockState page retirement -----------------------------------------

TEST(PageRetirement, RetiredPagesKeepTheirOnlyCopyOnHost) {
  VaSpace space;
  space.allocate(kVaBlockSize, "block", HostInit::none());
  VaBlockState& block = space.block(0);
  block.set_cpu_initialized(3, 1);  // populated with host data
  block.set_gpu_resident(5);        // populated, GPU copy authoritative
  ASSERT_FALSE(block.host_data()[5]);

  block.retire_page(3);
  block.retire_page(5);
  block.retire_page(9);  // never populated: just carries the ban

  for (const std::uint32_t p : {3u, 5u, 9u}) {
    EXPECT_TRUE(block.is_retired(p)) << "page " << p;
    EXPECT_FALSE(block.gpu_resident()[p]) << "page " << p;
  }
  // Populated pages kept/regained host_data; the untouched one did not.
  EXPECT_TRUE(block.host_data()[3]);
  EXPECT_TRUE(block.host_data()[5]);
  EXPECT_FALSE(block.host_data()[9]);
  // No orphans: populated ⊆ gpu_resident ∪ host_data.
  const auto orphaned =
      block.populated() & ~(block.gpu_resident() | block.host_data());
  EXPECT_TRUE(orphaned.none());

  // retire_all_pages reports only the newly retired remainder.
  EXPECT_EQ(block.retired_count(), 3u);
  EXPECT_EQ(block.retire_all_pages(), kPagesPerVaBlock - 3);
  EXPECT_EQ(block.retired_count(), kPagesPerVaBlock);
}

// ---- FaultBuffer wedge -----------------------------------------------------

TEST(WedgedBuffer, PresentsNothingUntilCleared) {
  FaultBuffer buffer(64);
  FaultRecord fault;
  fault.page = 7;
  fault.timestamp = 100;
  ASSERT_TRUE(buffer.push(fault));

  buffer.set_wedged();
  buffer.set_wedged();  // idempotent: still one wedge event
  EXPECT_TRUE(buffer.wedged());
  EXPECT_EQ(buffer.total_wedges(), 1u);
  // Entries pile up behind the wedge but none are presented.
  EXPECT_TRUE(buffer.drain_arrived(16, 1'000).empty());
  fault.page = 8;
  EXPECT_TRUE(buffer.push(fault));

  buffer.clear_wedged();
  EXPECT_EQ(buffer.drain_arrived(16, 1'000).size(), 2u);
  EXPECT_EQ(buffer.total_wedges(), 1u);
}

// ---- FaultInjector fatal classes ------------------------------------------

TEST(FatalInjection, DisabledOrZeroProbProbesNeverFireOrDraw) {
  FaultInjectConfig cfg;  // enabled = false, probabilities armed
  cfg.ecc_double_bit_prob = 1.0;
  cfg.poison_prob = 1.0;
  cfg.ce_permanent_prob = 1.0;
  cfg.wedge_prob = 1.0;
  FaultInjector off(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(off.ecc_double_bit());
    EXPECT_FALSE(off.poisoned_page());
    EXPECT_FALSE(off.ce_permanent_failure());
    EXPECT_FALSE(off.fault_buffer_wedge());
  }
  EXPECT_EQ(off.ecc_faults_injected(), 0u);
  EXPECT_EQ(off.wedges_injected(), 0u);
  EXPECT_FALSE(cfg.fatal_active());
  cfg.enabled = true;
  EXPECT_TRUE(cfg.fatal_active());
  EXPECT_TRUE(cfg.active());
}

TEST(FatalInjection, ArmingFatalClassesDoesNotPerturbTransientStreams) {
  // The fatal sites fork their own streams: a schedule recorded before
  // the recovery PR must replay identically with fatal classes armed.
  FaultInjectConfig transient_only;
  transient_only.enabled = true;
  transient_only.transfer_error_prob = 0.25;
  transient_only.storm_prob = 0.2;
  FaultInjectConfig both = transient_only;
  both.ecc_double_bit_prob = 0.5;
  both.wedge_prob = 0.5;
  both.wedge_gpu_reset_frac = 0.5;

  FaultInjector a(transient_only), b(both);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.transfer_error(), b.transfer_error()) << "draw " << i;
    EXPECT_EQ(a.storm_faults(), b.storm_faults()) << "draw " << i;
    b.ecc_double_bit();  // interleave fatal draws
    if (b.fault_buffer_wedge()) b.wedge_needs_gpu_reset();
  }
  EXPECT_GT(b.ecc_faults_injected(), 0u);
  EXPECT_GT(b.wedges_injected(), 0u);
}

// ---- Batch-log round trip --------------------------------------------------

TEST(RecoveryLog, FieldsRoundTripAndZeroStaysInvisible) {
  BatchRecord rec;
  rec.id = 3;
  rec.start_ns = 100;
  rec.end_ns = 9'100;
  rec.phases.recovery_ns = 9'000;
  rec.counters.faults_cancelled = 4;
  rec.counters.pages_retired = 512;
  rec.counters.chunks_retired = 1;
  rec.counters.channel_resets = 2;
  rec.counters.gpu_resets = 1;

  const std::string line = serialize_batch(rec);
  EXPECT_NE(line.find("recovery=9000"), std::string::npos);
  EXPECT_NE(line.find("cancelled=4"), std::string::npos);
  EXPECT_NE(line.find("pgretired=512"), std::string::npos);
  EXPECT_NE(line.find("chkretired=1"), std::string::npos);
  EXPECT_NE(line.find("ceresets=2"), std::string::npos);
  EXPECT_NE(line.find("gpuresets=1"), std::string::npos);
  BatchRecord parsed;
  ASSERT_TRUE(parse_batch(line, parsed));
  EXPECT_EQ(serialize_batch(parsed), line);

  // All-zero recovery fields vanish: pre-recovery logs stay byte-stable.
  const std::string plain = serialize_batch(BatchRecord{});
  for (const char* key :
       {"recovery=", "cancelled=", "pgretired=", "chkretired=", "ceresets=",
        "gpuresets="}) {
    EXPECT_EQ(plain.find(key), std::string::npos) << key;
  }
}

// ---- End-to-end: the ladder ------------------------------------------------

RunResult run_fatal(SystemConfig cfg, std::uint64_t elements = 1 << 16) {
  System system(cfg);
  return system.run(make_stream_triad(elements));
}

// Prefetch off: blocks fault page by page across many batches, so blocks
// are routinely serviced while already holding a chunk — the regime where
// the ECC and poison sites actually probe. (Tree prefetch migrates whole
// blocks on first touch, leaving nothing chunk-resident to re-service.)
SystemConfig base_config() {
  SystemConfig cfg = small_config();
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  return cfg;
}

SystemConfig fatal_config() {
  SystemConfig cfg = base_config();
  cfg.driver.inject.enabled = true;
  cfg.driver.recovery.enabled = true;
  return cfg;
}

TEST(RecoveryLadder, EccRetiresChunksAndRunStillCompletes) {
  SystemConfig cfg = fatal_config();
  cfg.driver.inject.ecc_double_bit_prob = 0.05;
  System system(cfg);
  const auto result = system.run(make_stream_triad(1 << 17));
  const BatchTotals logged = totals(result.log);
  EXPECT_GT(result.injected_ecc_faults, 0u);
  EXPECT_GT(logged.faults_cancelled, 0u);
  EXPECT_GT(logged.pages_retired, 0u);
  EXPECT_GT(logged.chunks_retired, 0u);
  // Blacklisted chunks shrank the physical pool by exactly the log's count.
  EXPECT_EQ(system.driver().gpu_memory().retired_chunks(),
            logged.chunks_retired);
  // Retired pages resolve remotely from then on; no page's only copy lost.
  const auto& space = system.driver().va_space();
  EXPECT_TRUE(space.any_retired());
  for (VaBlockId b = 0; b < space.block_count(); ++b) {
    const auto& block = space.block(b);
    const auto orphaned =
        block.populated() & ~(block.gpu_resident() | block.host_data());
    EXPECT_TRUE(orphaned.none()) << "block " << b;
    // A retired page must never be GPU resident.
    EXPECT_TRUE((block.retired() & block.gpu_resident()).none())
        << "block " << b;
  }
}

TEST(RecoveryLadder, PoisonRetiresSinglePagesNotWholeBlocks) {
  SystemConfig cfg = fatal_config();
  cfg.driver.inject.poison_prob = 0.05;
  const auto result = run_fatal(cfg, 1 << 17);
  const BatchTotals logged = totals(result.log);
  EXPECT_GT(result.injected_poison_faults, 0u);
  EXPECT_EQ(logged.pages_retired, result.injected_poison_faults);
  EXPECT_EQ(logged.chunks_retired, 0u);
  EXPECT_EQ(logged.gpu_resets, 0u);
}

TEST(RecoveryLadder, PermanentChannelFailureResetsInsteadOfAborting) {
  // Every transfer fails transiently and every exhaustion goes permanent:
  // without recovery this run would abandon blocks; with it the channel
  // resets and the copy replays, so the abort count stays zero and the
  // same bytes reach the GPU as in a clean run.
  SystemConfig cfg = fatal_config();
  cfg.driver.retry.max_attempts = 2;
  cfg.driver.inject.transfer_error_prob = 1.0;
  cfg.driver.inject.ce_permanent_prob = 1.0;
  const auto result = run_fatal(cfg);
  const BatchTotals logged = totals(result.log);
  EXPECT_GT(result.injected_ce_failures, 0u);
  EXPECT_GT(logged.channel_resets, 0u);
  EXPECT_EQ(logged.service_aborts, 0u);
  const auto baseline = run_fatal(base_config());
  EXPECT_EQ(result.bytes_h2d, baseline.bytes_h2d);
  EXPECT_GT(logged.recovery_ns, 0u);
}

TEST(RecoveryLadder, WedgeClearsViaWatchdogChannelReset) {
  SystemConfig cfg = fatal_config();
  cfg.driver.inject.wedge_prob = 0.2;
  cfg.driver.inject.wedge_gpu_reset_frac = 0.0;  // channel severity only
  cfg.driver.recovery.watchdog_stuck_wakeups = 2;
  const auto result = run_fatal(cfg);
  const BatchTotals logged = totals(result.log);
  EXPECT_GT(result.injected_wedges, 0u);
  EXPECT_GT(result.watchdog_stuck_wakeups, 0u);
  EXPECT_GT(logged.channel_resets, 0u);
  EXPECT_EQ(logged.gpu_resets, 0u);
}

TEST(RecoveryLadder, WedgeEscalatesToGpuResetWhenChannelResetFails) {
  SystemConfig cfg = fatal_config();
  cfg.driver.inject.wedge_prob = 0.2;
  cfg.driver.inject.wedge_gpu_reset_frac = 1.0;  // channel reset never enough
  cfg.driver.recovery.watchdog_stuck_wakeups = 2;
  const auto result = run_fatal(cfg);
  const BatchTotals logged = totals(result.log);
  EXPECT_GT(result.injected_wedges, 0u);
  // The ladder is strict: a channel reset is always tried first, then the
  // GPU reset that actually clears this severity.
  EXPECT_GT(logged.channel_resets, 0u);
  EXPECT_GT(logged.gpu_resets, 0u);
  EXPECT_GE(logged.channel_resets, logged.gpu_resets);
  // Kernels re-fault after the reset: at least a clean run's traffic.
  const auto baseline = run_fatal(base_config());
  EXPECT_GE(result.bytes_h2d, baseline.bytes_h2d);
  EXPECT_GE(result.replays, baseline.replays);
}

TEST(RecoveryLadder, RetiredPoolOverflowEscalatesToGpuReset) {
  // A 2-chunk pool against whole-block (512-page) retirements: the second
  // ECC retirement overflows the pool and the bottom half escalates to a
  // tier-4 reset within the same batch.
  SystemConfig cfg = fatal_config();
  cfg.driver.inject.ecc_double_bit_prob = 0.2;
  cfg.driver.recovery.retired_page_pool = 2 * kPagesPerVaBlock;
  const auto result = run_fatal(cfg, 1 << 20);  // ~12 blocks of traffic
  const BatchTotals logged = totals(result.log);
  EXPECT_GT(logged.pages_retired, 2u * kPagesPerVaBlock);
  EXPECT_GT(logged.gpu_resets, 0u);
}

TEST(RecoveryLadder, FatalRunsReplayBitIdentically) {
  SystemConfig cfg = fatal_config();
  cfg.driver.inject.ecc_double_bit_prob = 0.02;
  cfg.driver.inject.poison_prob = 0.02;
  cfg.driver.inject.transfer_error_prob = 0.3;
  cfg.driver.inject.ce_permanent_prob = 0.5;
  cfg.driver.inject.wedge_prob = 0.05;
  cfg.driver.inject.wedge_gpu_reset_frac = 0.5;
  cfg.driver.retry.max_attempts = 2;
  const auto a = run_fatal(cfg);
  const auto b = run_fatal(cfg);
  EXPECT_EQ(a.kernel_time_ns, b.kernel_time_ns);
  const BatchTotals a_log = totals(a.log);
  const BatchTotals b_log = totals(b.log);
  EXPECT_EQ(a_log.pages_retired, b_log.pages_retired);
  EXPECT_EQ(a_log.channel_resets, b_log.channel_resets);
  EXPECT_EQ(a_log.gpu_resets, b_log.gpu_resets);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    ASSERT_EQ(serialize_batch(a.log[i]), serialize_batch(b.log[i]))
        << "batch " << i;
  }
}

}  // namespace
}  // namespace uvmsim
