// Access-counter subsystem: the GMMU's second notification channel and
// the driver's counter-driven migration path.
//
// The properties under test:
//   * hardware register semantics — threshold crossing notifies exactly
//     once per armed region, clear-on-service re-arms, a full notification
//     buffer drops on the floor (but leaves the region armed to retry);
//   * zero-cost abstraction — counters enabled on a workload with no
//     remote traffic are bit-identical to counters disabled, and disabled
//     counters leave every RunResult counter field zero;
//   * end-to-end — on an oversubscribed thrash-pinned workload the
//     servicer drains notifications, promotes pages, and lifts pins;
//   * determinism — counter-assisted runs replay byte-identically across
//     20 fuzzed seeds.
#include <gtest/gtest.h>

#include <string>

#include "analysis/log_io.hpp"
#include "analysis/summary.hpp"
#include "core/system.hpp"
#include "gpu/access_counters.hpp"
#include "test_util.hpp"

namespace uvmsim {
namespace {

using testutil::make_counter_fuzz_case;
using testutil::make_fuzz_case;
using testutil::small_config;

// ---- AccessCounterUnit register semantics ---------------------------------

TEST(AccessCounterUnit, NotifiesExactlyAtThreshold) {
  AccessCounterUnit unit(/*granularity=*/4, /*threshold=*/8, /*buffer=*/16);
  for (int i = 0; i < 7; ++i) unit.record_remote_access(5, 2, 100 + i);
  EXPECT_EQ(unit.pending(), 0u);
  unit.record_remote_access(6, 3, 200);  // page 6 is in region [4, 8)
  ASSERT_EQ(unit.pending(), 1u);

  const auto drained = unit.drain_arrived(16, 200);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].base_page, 4u);
  EXPECT_EQ(drained[0].region_pages, 4u);
  EXPECT_EQ(drained[0].count, 8u);
  EXPECT_EQ(drained[0].sm, 3u);
  EXPECT_EQ(drained[0].arrival_ns, 200u);
  EXPECT_EQ(unit.total_notifications(), 1u);
}

TEST(AccessCounterUnit, DisarmedRegionStaysSilentUntilCleared) {
  AccessCounterUnit unit(4, 8, 16);
  for (int i = 0; i < 20; ++i) unit.record_remote_access(0, 0, i);
  // One crossing, then silence: the region is disarmed until serviced.
  EXPECT_EQ(unit.pending(), 1u);
  EXPECT_EQ(unit.total_notifications(), 1u);

  unit.drain_arrived(16, 100);
  unit.clear_region(0);
  EXPECT_EQ(unit.total_cleared(), 1u);
  // Clear-on-service reset the count: 8 fresh accesses re-notify.
  for (int i = 0; i < 7; ++i) unit.record_remote_access(1, 0, 200 + i);
  EXPECT_EQ(unit.pending(), 0u);
  unit.record_remote_access(2, 0, 300);
  EXPECT_EQ(unit.pending(), 1u);
  EXPECT_EQ(unit.total_notifications(), 2u);
}

TEST(AccessCounterUnit, FullBufferDropsButRegionRetries) {
  AccessCounterUnit unit(1, 4, /*buffer=*/1);
  for (int i = 0; i < 4; ++i) unit.record_remote_access(0, 0, i);
  EXPECT_EQ(unit.pending(), 1u);  // buffer now full

  // A second region crosses against the full buffer: dropped on the
  // floor, count reset, but still armed.
  for (int i = 0; i < 4; ++i) unit.record_remote_access(9, 0, 10 + i);
  EXPECT_EQ(unit.pending(), 1u);
  EXPECT_EQ(unit.total_dropped_full(), 1u);

  // Sustained traffic re-crosses once the driver drained the buffer.
  unit.drain_arrived(4, 100);
  for (int i = 0; i < 4; ++i) unit.record_remote_access(9, 0, 200 + i);
  ASSERT_EQ(unit.pending(), 1u);
  EXPECT_EQ(unit.drain_arrived(4, 300)[0].base_page, 9u);
  EXPECT_EQ(unit.total_dropped_full(), 1u);
  EXPECT_EQ(unit.total_notifications(), 2u);
}

TEST(AccessCounterUnit, GranularityDefinesRegionsAndClamps) {
  // Pages in different regions count independently.
  AccessCounterUnit unit(8, 3, 16);
  unit.record_remote_access(0, 0, 0);
  unit.record_remote_access(7, 0, 1);   // region [0, 8)
  unit.record_remote_access(8, 0, 2);   // region [8, 16)
  EXPECT_EQ(unit.pending(), 0u);
  unit.record_remote_access(3, 0, 3);   // third hit on [0, 8)
  ASSERT_EQ(unit.pending(), 1u);
  EXPECT_EQ(unit.drain_arrived(1, 10)[0].base_page, 0u);

  // Register clamping: power of two within [1, pages-per-VABlock].
  EXPECT_EQ(AccessCounterUnit(20, 1, 1).granularity_pages(), 16u);
  EXPECT_EQ(AccessCounterUnit(0, 1, 1).granularity_pages(), 1u);
  EXPECT_EQ(AccessCounterUnit(4096, 1, 1).granularity_pages(),
            kPagesPerVaBlock);
  EXPECT_EQ(AccessCounterUnit(1, 0, 0).threshold(), 1u);
  EXPECT_EQ(AccessCounterUnit(1, 0, 0).buffer_capacity(), 1u);
}

TEST(AccessCounterUnit, DrainRespectsArrivalTimeAndBatchSize) {
  AccessCounterUnit unit(1, 1, 16);  // threshold 1: every access notifies
  for (PageId p = 0; p < 6; ++p) {
    unit.record_remote_access(p, 0, 1000 * (p + 1));
  }
  ASSERT_EQ(unit.pending(), 6u);
  // Nothing has arrived yet at t=999.
  EXPECT_TRUE(unit.drain_arrived(16, 999).empty());
  // At t=3000 three have arrived, but the batch size caps the fetch at 2.
  const auto first = unit.drain_arrived(2, 3000);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].base_page, 0u);
  EXPECT_EQ(first[1].base_page, 1u);
  EXPECT_EQ(unit.drain_arrived(16, 3000).size(), 1u);
  EXPECT_EQ(unit.pending(), 3u);
}

// ---- Batch-log serialization ----------------------------------------------

TEST(AccessCounterLog, FieldsRoundTripAndZeroStaysInvisible) {
  BatchRecord rec;
  rec.id = 1;
  rec.start_ns = 10;
  rec.end_ns = 90;
  const std::string plain = serialize_batch(rec);
  for (const char* key : {"counter", "ctrnotif", "ctrdrop", "ctrpromoted",
                          "ctrunpin", "ctrevict"}) {
    EXPECT_EQ(plain.find(key), std::string::npos) << key;
  }

  rec.phases.counter_ns = 4321;
  rec.counters.ctr_notifications = 1;
  rec.counters.ctr_dropped = 2;
  rec.counters.ctr_pages_promoted = 3;
  rec.counters.ctr_unpins = 4;
  rec.counters.ctr_evictions = 5;
  BatchRecord parsed;
  ASSERT_TRUE(parse_batch(serialize_batch(rec), parsed));
  EXPECT_EQ(parsed.phases.counter_ns, 4321u);
  EXPECT_EQ(parsed.counters.ctr_notifications, 1u);
  EXPECT_EQ(parsed.counters.ctr_dropped, 2u);
  EXPECT_EQ(parsed.counters.ctr_pages_promoted, 3u);
  EXPECT_EQ(parsed.counters.ctr_unpins, 4u);
  EXPECT_EQ(parsed.counters.ctr_evictions, 5u);
  EXPECT_EQ(serialize_batch(parsed), serialize_batch(rec));
}

// ---- End-to-end -----------------------------------------------------------

std::string serialize_log(const BatchLog& log) {
  std::string out;
  for (const auto& rec : log) {
    out += serialize_batch(rec);
    out += '\n';
  }
  return out;
}

TEST(AccessCounterSystem, DisabledLeavesEveryResultFieldZero) {
  System system(small_config());
  const auto result = system.run(make_stream_triad(1 << 15));
  EXPECT_EQ(system.access_counters(), nullptr);
  const BatchTotals logged = totals(result.log);
  EXPECT_EQ(result.counter_notifications, 0u);
  EXPECT_EQ(logged.ctr_notifications, 0u);
  EXPECT_EQ(result.counter_notifications_dropped, 0u);
  EXPECT_EQ(result.counter_notifications_lost, 0u);
  EXPECT_EQ(logged.ctr_pages_promoted, 0u);
  EXPECT_EQ(logged.ctr_unpins, 0u);
  EXPECT_EQ(logged.ctr_evictions, 0u);
  EXPECT_FALSE(logged.any(BatchGroup::kCounters));
}

TEST(AccessCounterSystem, NoRemoteTrafficMeansBitIdenticalToDisabled) {
  // The base fuzz cases have no placement advice and no thrashing
  // mitigation, so nothing is ever remote-mapped: an armed counter unit
  // must never fire and the batch logs must match byte for byte.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto base = make_fuzz_case(seed);
    auto with = base;
    with.config.driver.access_counters.enabled = true;
    with.config.driver.access_counters.threshold = 1;

    System off(base.config);
    const auto a = off.run(base.spec);
    System on(with.config);
    const auto b = on.run(with.spec);
    ASSERT_NE(on.access_counters(), nullptr);
    EXPECT_EQ(on.access_counters()->total_accesses(), 0u) << "seed " << seed;
    EXPECT_EQ(b.counter_notifications, 0u);
    EXPECT_EQ(a.kernel_time_ns, b.kernel_time_ns) << "seed " << seed;
    EXPECT_EQ(serialize_log(a.log), serialize_log(b.log)) << "seed " << seed;
  }
}

SystemConfig pinned_oversub_config() {
  SystemConfig cfg = small_config(8);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  cfg.driver.thrash.enabled = true;
  cfg.driver.thrash.mitigation = ThrashMitigation::kPin;
  // Pins that outlive the kernel: the unpin must come from the counter
  // servicer, not from pin expiry.
  cfg.driver.thrash.pin_lapse_ns = 200'000'000;
  cfg.driver.access_counters.enabled = true;
  cfg.driver.access_counters.granularity_pages = 16;
  cfg.driver.access_counters.threshold = 32;
  return cfg;
}

TEST(AccessCounterSystem, PromotesPinnedPagesEndToEnd) {
  System system(pinned_oversub_config());
  const auto result = system.run(make_random(16ULL << 20, 0x5eed));

  const BatchTotals logged = totals(result.log);
  EXPECT_GT(logged.thrash_pins, 0u);
  EXPECT_GT(result.counter_notifications, 0u);
  EXPECT_GT(logged.ctr_notifications, 0u);
  EXPECT_GT(logged.ctr_pages_promoted, 0u);
  EXPECT_GT(logged.ctr_unpins, 0u);
  // Serviced notifications were all queued first (the tail may still be
  // pending at kernel end, so queued >= serviced).
  EXPECT_GE(result.counter_notifications, logged.ctr_notifications);
  EXPECT_EQ(result.counter_notifications_lost, 0u);  // injection off

  // Log totals agree with the servicers' own books and the pass time is
  // real.
  const UvmDriver& driver = system.driver();
  EXPECT_EQ(logged.ctr_pages_promoted,
            driver.counter_servicer().total_pages_promoted());
  EXPECT_EQ(logged.ctr_unpins, driver.counter_servicer().total_unpins());
  EXPECT_EQ(logged.ctr_evictions, driver.total_counter_evictions());
  EXPECT_GT(logged.counter_ns, 0u);

  // Batch invariant: the serviced window never exceeds the phase sum.
  for (const auto& rec : result.log) {
    EXPECT_LE(rec.duration_ns(), rec.phases.sum()) << "batch " << rec.id;
  }
  // No page's only copy was lost to a promotion eviction.
  const auto& space = system.driver().va_space();
  for (VaBlockId b = 0; b < space.block_count(); ++b) {
    const auto& block = space.block(b);
    const auto orphaned =
        block.populated() & ~(block.gpu_resident() | block.host_data());
    EXPECT_TRUE(orphaned.none()) << "block " << b;
  }
}

TEST(AccessCounterSystem, InjectedNotificationLossIsAccounted) {
  SystemConfig cfg = pinned_oversub_config();
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.counter_loss_prob = 0.5;
  System system(cfg);
  const auto result = system.run(make_random(16ULL << 20, 0x5eed));
  EXPECT_GT(result.counter_notifications_lost, 0u);
  EXPECT_EQ(result.counter_notifications_lost,
            system.injector().counter_notifications_lost());
}

// ---- Property: byte-identical replay across 20 fuzzed seeds ---------------

TEST(AccessCounterProperty, FuzzedRunsReplayByteIdentically) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto c = make_counter_fuzz_case(seed);
    System first(c.config);
    const auto a = first.run(c.spec);
    System second(c.config);
    const auto b = second.run(c.spec);

    EXPECT_EQ(a.kernel_time_ns, b.kernel_time_ns) << "seed " << seed;
    EXPECT_EQ(a.counter_notifications, b.counter_notifications)
        << "seed " << seed;
    const BatchTotals logged = totals(a.log);
    EXPECT_EQ(logged.ctr_pages_promoted, totals(b.log).ctr_pages_promoted)
        << "seed " << seed;
    EXPECT_EQ(a.counter_notifications_dropped,
              b.counter_notifications_dropped)
        << "seed " << seed;
    ASSERT_EQ(serialize_log(a.log), serialize_log(b.log)) << "seed " << seed;

    // Cross-layer accounting holds under fuzzed registers too.
    EXPECT_GE(a.counter_notifications, logged.ctr_notifications)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace uvmsim
