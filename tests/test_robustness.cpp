// Robustness layer: fault injection, transient-error retry/backoff, and
// thrashing detection with graceful degradation.
//
// The properties under test:
//   * the injector is a pure function of (config, seed) — identical-seed
//     runs are bit-identical, and injection OFF is a zero-cost abstraction
//     (bit-identical to a build without the subsystem);
//   * every injected failure is accounted for exactly once in the batch
//     log (accounting balance);
//   * exhausted retry budgets abandon work without losing it — aborted
//     blocks re-fault after the replay and the run still completes with
//     every touched page resident-or-evicted;
//   * the thrashing detector only fires on eviction ping-pong, and the pin
//     mitigation measurably removes it.
#include <gtest/gtest.h>

#include "analysis/log_io.hpp"
#include "analysis/summary.hpp"
#include "common/fault_inject.hpp"
#include "core/system.hpp"
#include "test_util.hpp"
#include "uvm/thrashing.hpp"

namespace uvmsim {
namespace {

using testutil::small_config;

// ---- FaultInjector unit properties ----------------------------------------

TEST(FaultInjector, DisabledProbesNeverFire) {
  FaultInjectConfig cfg;  // enabled = false, but probabilities armed
  cfg.transfer_error_prob = 1.0;
  cfg.dma_map_error_prob = 1.0;
  cfg.interrupt_delay_prob = 1.0;
  cfg.interrupt_loss_prob = 1.0;
  cfg.storm_prob = 1.0;
  FaultInjector inj(cfg);
  EXPECT_FALSE(inj.active());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.transfer_error());
    EXPECT_FALSE(inj.dma_map_error());
    EXPECT_EQ(inj.interrupt_delay(), 0u);
    EXPECT_FALSE(inj.interrupt_loss());
    EXPECT_EQ(inj.storm_faults(), 0u);
  }
  EXPECT_EQ(inj.transfer_errors_injected(), 0u);
  EXPECT_EQ(inj.dma_map_errors_injected(), 0u);
  EXPECT_EQ(inj.interrupts_delayed(), 0u);
  EXPECT_EQ(inj.interrupts_lost(), 0u);
  EXPECT_EQ(inj.storm_faults_injected(), 0u);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultInjectConfig cfg;
  cfg.enabled = true;
  cfg.transfer_error_prob = 0.3;
  cfg.dma_map_error_prob = 0.2;
  cfg.interrupt_loss_prob = 0.1;
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.transfer_error(), b.transfer_error());
    EXPECT_EQ(a.dma_map_error(), b.dma_map_error());
    EXPECT_EQ(a.interrupt_loss(), b.interrupt_loss());
  }
  EXPECT_EQ(a.transfer_errors_injected(), b.transfer_errors_injected());
  EXPECT_GT(a.transfer_errors_injected(), 0u);
}

TEST(FaultInjector, SitesAreIndependentStreams) {
  // Arming a second injection class must not perturb the first one's
  // schedule: each hook site draws from its own forked stream.
  FaultInjectConfig only_transfer;
  only_transfer.enabled = true;
  only_transfer.transfer_error_prob = 0.25;
  FaultInjectConfig both = only_transfer;
  both.dma_map_error_prob = 0.5;

  FaultInjector a(only_transfer), b(both);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.transfer_error(), b.transfer_error()) << "draw " << i;
    b.dma_map_error();  // interleave dma draws; must not disturb transfer
  }
}

TEST(FaultInjector, CountersTrackFires) {
  FaultInjectConfig cfg;
  cfg.enabled = true;
  cfg.transfer_error_prob = 0.5;
  FaultInjector inj(cfg);
  std::uint64_t fires = 0;
  for (int i = 0; i < 2000; ++i) {
    if (inj.transfer_error()) ++fires;
  }
  EXPECT_EQ(inj.transfer_errors_injected(), fires);
  EXPECT_GT(fires, 700u);   // p=0.5 over 2000 draws
  EXPECT_LT(fires, 1300u);
}

// ---- RetryPolicy ----------------------------------------------------------

TEST(RetryPolicy, BackoffIsExponentialAndCapped) {
  RetryPolicy retry;
  retry.backoff_base_ns = 1000;
  retry.backoff_mult = 2;
  retry.backoff_cap_ns = 6000;
  EXPECT_EQ(retry.backoff_ns(0), 1000u);
  EXPECT_EQ(retry.backoff_ns(1), 2000u);
  EXPECT_EQ(retry.backoff_ns(2), 4000u);
  EXPECT_EQ(retry.backoff_ns(3), 6000u);   // capped
  EXPECT_EQ(retry.backoff_ns(10), 6000u);  // stays capped, no overflow
}

TEST(RetryPolicy, BackoffNeverOverflowsNearU64Max) {
  // Regression: the doubling loop used to wrap SimTime before the cap
  // comparison, so a pathological (base, mult, cap) returned a tiny wait
  // instead of the cap once base * mult^failures exceeded 2^64.
  RetryPolicy retry;
  retry.backoff_base_ns = 1ULL << 62;
  retry.backoff_mult = 2;
  retry.backoff_cap_ns = ~SimTime{0};
  EXPECT_EQ(retry.backoff_ns(0), 1ULL << 62);
  EXPECT_EQ(retry.backoff_ns(1), 1ULL << 63);
  EXPECT_EQ(retry.backoff_ns(2), ~SimTime{0});  // would have wrapped to 0
  EXPECT_EQ(retry.backoff_ns(64), ~SimTime{0});

  // Monotonicity in the failure count survives saturation.
  retry.backoff_base_ns = 3;
  retry.backoff_mult = 7;
  retry.backoff_cap_ns = ~SimTime{0} - 1;
  SimTime prev = 0;
  for (std::uint32_t f = 0; f < 100; ++f) {
    const SimTime wait = retry.backoff_ns(f);
    EXPECT_GE(wait, prev) << "failures " << f;
    EXPECT_LE(wait, retry.backoff_cap_ns) << "failures " << f;
    prev = wait;
  }
  EXPECT_EQ(prev, retry.backoff_cap_ns);

  // A base already at/above the cap pins to the cap, mult <= 1 never
  // grows, and the accumulation helper saturates instead of wrapping.
  retry.backoff_base_ns = 500;
  retry.backoff_cap_ns = 100;
  EXPECT_EQ(retry.backoff_ns(3), 100u);
  retry.backoff_cap_ns = 1'000'000;
  retry.backoff_mult = 1;
  EXPECT_EQ(retry.backoff_ns(50), 500u);
  EXPECT_EQ(sat_add(~SimTime{0} - 5, 10), ~SimTime{0});
  EXPECT_EQ(sat_add(SimTime{40}, SimTime{2}), 42u);
}

// ---- ThrashingDetector unit properties ------------------------------------

TEST(ThrashingDetector, NeverFiresWithoutEvictionRecency) {
  ThrashingConfig cfg;
  cfg.enabled = true;
  cfg.threshold = 2;
  ThrashingDetector det(cfg);
  // Faults with no eviction history are ordinary first touches.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(det.record_fault(7, 1000u * i));
  }
  // A fault long after the eviction is outside the lapse window.
  det.record_eviction(7, 100'000);
  EXPECT_FALSE(det.record_fault(7, 100'000 + cfg.lapse_ns + 1));
  EXPECT_EQ(det.thrash_events(), 0u);
}

TEST(ThrashingDetector, FiresAfterThresholdPingPongs) {
  ThrashingConfig cfg;
  cfg.enabled = true;
  cfg.lapse_ns = 1000;
  cfg.threshold = 3;
  cfg.window_ns = 1'000'000;
  ThrashingDetector det(cfg);
  SimTime t = 0;
  // evict -> re-fault within the lapse, three times: third fault trips it.
  for (int round = 0; round < 3; ++round) {
    det.record_eviction(5, t);
    const bool thrashing = det.record_fault(5, t + 500);
    EXPECT_EQ(thrashing, round == 2) << "round " << round;
    t += 10'000;
  }
  EXPECT_EQ(det.thrash_events(), 3u);
  // A different block is unaffected.
  det.record_eviction(6, t);
  EXPECT_FALSE(det.record_fault(6, t + 500));
}

TEST(ThrashingDetector, OldEventsAgeOutOfTheWindow) {
  ThrashingConfig cfg;
  cfg.enabled = true;
  cfg.lapse_ns = 1000;
  cfg.threshold = 3;
  cfg.window_ns = 5'000;
  ThrashingDetector det(cfg);
  // Two thrash events early, one much later: the early pair is outside
  // window_ns of the newest event, so the block is not thrashing.
  det.record_eviction(9, 0);
  EXPECT_FALSE(det.record_fault(9, 100));
  det.record_eviction(9, 200);
  EXPECT_FALSE(det.record_fault(9, 300));
  det.record_eviction(9, 1'000'000);
  EXPECT_FALSE(det.record_fault(9, 1'000'500));
  EXPECT_EQ(det.thrash_events(), 3u);
}

TEST(ThrashingDetector, PinsAndShieldsExpire) {
  ThrashingConfig cfg;
  cfg.enabled = true;
  ThrashingDetector det(cfg);
  det.pin(3, 1000);
  EXPECT_TRUE(det.is_pinned(3, 999));
  EXPECT_FALSE(det.is_pinned(3, 1000));  // expiry is exclusive
  EXPECT_FALSE(det.is_pinned(4, 0));     // untracked block
  det.shield(3, 2000);
  EXPECT_TRUE(det.is_shielded(3, 1999));
  EXPECT_FALSE(det.is_shielded(3, 2000));
  EXPECT_EQ(det.pins(), 1u);
  EXPECT_EQ(det.shields(), 1u);
}

TEST(ThrashingDetector, UnpinLiftsLivePinsAndClearsHistory) {
  // The access-counter servicer's way back from pin+remote-map: unpin()
  // lifts a live pin (counted), is a no-op on expired pins and untracked
  // blocks, and clears the thrash history so the block re-earns any
  // future pin from scratch.
  ThrashingConfig cfg;
  cfg.enabled = true;
  cfg.lapse_ns = 1000;
  cfg.threshold = 3;
  ThrashingDetector det(cfg);

  det.pin(3, 10'000);
  ASSERT_TRUE(det.is_pinned(3, 500));
  EXPECT_TRUE(det.unpin(3, 500));
  EXPECT_FALSE(det.is_pinned(3, 500));
  EXPECT_EQ(det.unpins(), 1u);

  // Unpinning again, an expired pin, or an untracked block: false, and
  // the unpin counter only tracks live pins actually lifted.
  EXPECT_FALSE(det.unpin(3, 600));
  det.pin(4, 1000);
  EXPECT_FALSE(det.unpin(4, 2000));  // already expired
  EXPECT_FALSE(det.unpin(99, 0));    // never tracked
  EXPECT_EQ(det.unpins(), 1u);

  // History cleared: the ping-pong count restarts after an unpin.
  SimTime t = 100'000;
  for (int round = 0; round < 3; ++round) {
    det.record_eviction(7, t);
    EXPECT_EQ(det.record_fault(7, t + 500), round == 2);
    t += 10'000;
  }
  det.pin(7, t + 1'000'000);
  EXPECT_TRUE(det.unpin(7, t));
  det.record_eviction(7, t);
  EXPECT_FALSE(det.record_fault(7, t + 500))
      << "pre-unpin thrash events must not count toward a new pin";
}

// ---- Serialization of the robustness fields -------------------------------

TEST(RobustnessLog, NewFieldsRoundTripAndZeroStaysInvisible) {
  BatchRecord rec;
  rec.id = 3;
  rec.start_ns = 10;
  rec.end_ns = 90;
  // All robustness fields zero: the serialized form must not mention them
  // (old logs and golden fixtures stay byte-identical).
  const std::string plain = serialize_batch(rec);
  for (const char* key : {"backoff", "throttle", "xfererr", "xferretry",
                          "dmaerr", "dmaretry", "aborts", "pins",
                          "throttles", "bufdrop"}) {
    EXPECT_EQ(plain.find(key), std::string::npos) << key;
  }

  rec.phases.backoff_ns = 111;
  rec.phases.throttle_ns = 222;
  rec.counters.transfer_errors = 1;
  rec.counters.transfer_retries = 2;
  rec.counters.dma_map_errors = 3;
  rec.counters.dma_map_retries = 4;
  rec.counters.service_aborts = 5;
  rec.counters.thrash_pins = 6;
  rec.counters.thrash_throttles = 7;
  rec.counters.buffer_dropped = 8;
  BatchRecord parsed;
  ASSERT_TRUE(parse_batch(serialize_batch(rec), parsed));
  EXPECT_EQ(parsed.phases.backoff_ns, 111u);
  EXPECT_EQ(parsed.phases.throttle_ns, 222u);
  EXPECT_EQ(parsed.counters.transfer_errors, 1u);
  EXPECT_EQ(parsed.counters.transfer_retries, 2u);
  EXPECT_EQ(parsed.counters.dma_map_errors, 3u);
  EXPECT_EQ(parsed.counters.dma_map_retries, 4u);
  EXPECT_EQ(parsed.counters.service_aborts, 5u);
  EXPECT_EQ(parsed.counters.thrash_pins, 6u);
  EXPECT_EQ(parsed.counters.thrash_throttles, 7u);
  EXPECT_EQ(parsed.counters.buffer_dropped, 8u);
  EXPECT_EQ(serialize_batch(parsed), serialize_batch(rec));
}

// ---- End-to-end: zero-cost off and determinism ----------------------------

RunResult run_stream(SystemConfig cfg, std::uint64_t elements = 1 << 16) {
  System system(cfg);
  return system.run(make_stream_triad(elements));
}

TEST(RobustnessSystem, DisabledInjectionIsBitIdentical) {
  // Probabilities armed but enabled=false: the whole subsystem must
  // vanish — batch logs byte-identical to a plain run.
  SystemConfig plain = small_config();
  SystemConfig armed = small_config();
  armed.driver.inject.transfer_error_prob = 1.0;
  armed.driver.inject.dma_map_error_prob = 1.0;
  armed.driver.inject.storm_prob = 1.0;
  armed.driver.inject.interrupt_loss_prob = 1.0;
  const auto a = run_stream(plain);
  const auto b = run_stream(armed);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(serialize_batch(a.log[i]), serialize_batch(b.log[i]));
  }
  EXPECT_EQ(a.kernel_time_ns, b.kernel_time_ns);
  EXPECT_EQ(b.injected_transfer_errors, 0u);
  EXPECT_EQ(b.injected_dma_errors, 0u);
  EXPECT_EQ(b.interrupts_lost, 0u);
  EXPECT_FALSE(totals(b.log).any(BatchGroup::kRobustness));
}

SystemConfig stormy_config() {
  SystemConfig cfg = small_config(16);
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.transfer_error_prob = 0.05;
  cfg.driver.inject.dma_map_error_prob = 0.05;
  cfg.driver.inject.interrupt_delay_prob = 0.1;
  cfg.driver.inject.interrupt_loss_prob = 0.02;
  cfg.driver.inject.storm_prob = 0.1;
  return cfg;
}

TEST(RobustnessSystem, InjectedRunsAreDeterministic) {
  const auto a = run_stream(stormy_config(), 1 << 17);
  const auto b = run_stream(stormy_config(), 1 << 17);
  EXPECT_EQ(a.kernel_time_ns, b.kernel_time_ns);
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.injected_transfer_errors, b.injected_transfer_errors);
  EXPECT_EQ(a.injected_dma_errors, b.injected_dma_errors);
  EXPECT_EQ(a.interrupts_delayed, b.interrupts_delayed);
  EXPECT_EQ(a.interrupts_lost, b.interrupts_lost);
  EXPECT_EQ(a.injected_storm_faults, b.injected_storm_faults);
  EXPECT_EQ(a.faults_dropped_full, b.faults_dropped_full);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    ASSERT_EQ(serialize_batch(a.log[i]), serialize_batch(b.log[i]))
        << "batch " << i;
  }
}

TEST(RobustnessSystem, InjectionSeedChangesTheSchedule) {
  SystemConfig cfg = stormy_config();
  const auto a = run_stream(cfg, 1 << 17);
  cfg.driver.inject.seed ^= 0xDEADBEEF;
  const auto b = run_stream(cfg, 1 << 17);
  // The workload still completes, but the injected schedule differs.
  EXPECT_NE(a.injected_transfer_errors + a.interrupts_delayed +
                a.injected_storm_faults,
            b.injected_transfer_errors + b.interrupts_delayed +
                b.injected_storm_faults);
}

// ---- End-to-end: accounting balance and graceful recovery -----------------

TEST(RobustnessSystem, TransferErrorAccountingBalances) {
  SystemConfig cfg = small_config();
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.transfer_error_prob = 0.3;
  const auto result = run_stream(cfg, 1 << 17);
  EXPECT_GT(result.injected_transfer_errors, 0u);
  // Every injected error landed in exactly one batch record.
  const BatchTotals robust = totals(result.log);
  EXPECT_EQ(robust.transfer_errors, result.injected_transfer_errors);
  EXPECT_GE(robust.transfer_errors, robust.transfer_retries);
  EXPECT_GT(robust.backoff_ns, 0u);
}

TEST(RobustnessSystem, DmaAbortAccountingBalancesExactly) {
  // DMA-map is never forced through, so its books close exactly:
  // every injected error is either a retry or part of an abort run.
  // The map probe fires once per 2 MB VABlock first touch, so the
  // workload must span enough blocks to make aborts certain.
  SystemConfig cfg = small_config();
  cfg.driver.retry.max_attempts = 2;
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.dma_map_error_prob = 0.75;
  System system(cfg);
  const auto result = system.run(make_random(48ULL << 20, 0xD3AD));
  const BatchTotals robust = totals(result.log);
  EXPECT_GT(robust.dma_map_errors, 0u);
  EXPECT_EQ(robust.dma_map_errors, result.injected_dma_errors);
  EXPECT_EQ(robust.dma_map_errors,
            robust.dma_map_retries + robust.service_aborts);
  EXPECT_GT(robust.service_aborts, 0u);
}

TEST(RobustnessSystem, AbortedServiceRecoversWithoutLosingPages) {
  // Aggressive failure rate + tiny retry budget: plenty of aborted
  // blocks, yet the kernel completes (aborted faults reissue after the
  // replay) and no page's only copy is lost.
  SystemConfig cfg = small_config();
  cfg.driver.retry.max_attempts = 2;
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.transfer_error_prob = 0.4;
  cfg.driver.inject.dma_map_error_prob = 0.4;
  System system(cfg);
  const auto result = system.run(make_stream_triad(1 << 16));
  EXPECT_GT(totals(result.log).service_aborts, 0u);

  const auto& space = system.driver().va_space();
  for (VaBlockId b = 0; b < space.block_count(); ++b) {
    const auto& block = space.block(b);
    const auto orphaned =
        block.populated() & ~(block.gpu_resident() | block.host_data());
    EXPECT_TRUE(orphaned.none()) << "block " << b;
  }
}

TEST(RobustnessSystem, StormOverflowDropsThenRecoversViaReissue) {
  // A guaranteed storm against a small HW buffer: hardware drops faults on
  // the floor, and the only path back is the post-replay µTLB reissue.
  // The run completing at all proves dropped faults are not lost work.
  SystemConfig cfg = small_config();
  cfg.gpu.fault_buffer_entries = 256;
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.storm_prob = 1.0;
  cfg.driver.inject.storm_faults = 1024;
  const auto result = run_stream(cfg);
  EXPECT_GT(result.injected_storm_faults, 0u);
  EXPECT_GT(result.faults_dropped_full, 0u);
  // The System annotated the per-batch drop deltas; they sum to the total.
  EXPECT_EQ(totals(result.log).buffer_dropped, result.faults_dropped_full);
}

TEST(RobustnessSystem, LostInterruptsDelayButDoNotWedge) {
  SystemConfig cfg = small_config();
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.interrupt_loss_prob = 0.3;
  cfg.driver.inject.interrupt_recovery_ns = 500'000;
  const auto injected = run_stream(cfg, 1 << 17);
  const auto baseline = run_stream(small_config(), 1 << 17);
  EXPECT_GT(injected.interrupts_lost, 0u);
  // Watchdog recovery costs wall time but the same work gets done.
  EXPECT_GT(injected.kernel_time_ns, baseline.kernel_time_ns);
  EXPECT_EQ(injected.bytes_h2d, baseline.bytes_h2d);
}

// ---- End-to-end: edge-case compositions -----------------------------------

TEST(RobustnessSystem, LostInterruptDuringOverflowStormStillRecovers) {
  // Composition: a guaranteed storm against a tiny HW buffer WHILE the
  // interrupt path is lossy. Drops and lost wakeups land in the same
  // window, so recovery depends on both the watchdog wakeup and the
  // post-replay reissue path working together.
  SystemConfig cfg = small_config();
  cfg.gpu.fault_buffer_entries = 256;
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.storm_prob = 1.0;
  cfg.driver.inject.storm_faults = 1024;
  cfg.driver.inject.interrupt_loss_prob = 0.5;
  cfg.driver.inject.interrupt_recovery_ns = 200'000;
  const auto result = run_stream(cfg);
  EXPECT_GT(result.faults_dropped_full, 0u);
  EXPECT_GT(result.interrupts_lost, 0u);
  // Both loss channels in play, yet the books still balance and the same
  // data ends up on the GPU as in a clean run.
  EXPECT_EQ(totals(result.log).buffer_dropped, result.faults_dropped_full);
  const auto baseline = run_stream(small_config());
  EXPECT_EQ(result.bytes_h2d, baseline.bytes_h2d);
}

TEST(RobustnessSystem, DmaFailureDuringEvictionWritebackConserves) {
  // Composition: oversubscription keeps the evictor hot while DMA mapping
  // of the incoming block fails most of the time with a tiny retry
  // budget. Abandoned services race eviction writebacks for the same
  // chunks; no interleaving may lose a page's only copy.
  SystemConfig cfg = small_config(16);
  cfg.driver.retry.max_attempts = 2;
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.dma_map_error_prob = 0.6;
  cfg.driver.inject.transfer_error_prob = 0.2;
  System system(cfg);
  const auto result = system.run(make_stream_triad(2 << 20));
  EXPECT_GT(result.evictions, 0u);
  EXPECT_GT(result.injected_dma_errors, 0u);
  EXPECT_GT(totals(result.log).service_aborts, 0u);
  const auto& space = system.driver().va_space();
  for (VaBlockId b = 0; b < space.block_count(); ++b) {
    const auto& block = space.block(b);
    const auto orphaned =
        block.populated() & ~(block.gpu_resident() | block.host_data());
    EXPECT_TRUE(orphaned.none()) << "block " << b;
  }
}

TEST(RobustnessSystem, RecoveryArmedWithZeroProbsIsBitIdentical) {
  // The recovery ladder armed but no fatal class probable: every probe
  // short-circuits before drawing, so the batch log stays byte-identical
  // to a run without the subsystem (the zero-cost-off contract the golden
  // fixtures rely on).
  SystemConfig plain = small_config();
  SystemConfig armed = small_config();
  armed.driver.recovery.enabled = true;
  armed.driver.inject.enabled = true;  // transient classes stay at 0 too
  const auto a = run_stream(plain, 1 << 17);
  const auto b = run_stream(armed, 1 << 17);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(serialize_batch(a.log[i]), serialize_batch(b.log[i]))
        << "batch " << i;
  }
  EXPECT_EQ(a.kernel_time_ns, b.kernel_time_ns);
  const BatchTotals logged = totals(b.log);
  EXPECT_FALSE(logged.any(BatchGroup::kRecovery));
  EXPECT_EQ(logged.pages_retired, 0u);
  EXPECT_EQ(logged.gpu_resets, 0u);
}

// ---- End-to-end: thrashing mitigation -------------------------------------

TEST(RobustnessSystem, PinMitigationBreaksEvictionPingPong) {
  // Sparse uniform-random access over a 2x-oversubscribed GPU: the
  // unmitigated run ping-pongs; pin+remote-map removes nearly all of it.
  SystemConfig off = small_config(8);
  off.driver.prefetch_enabled = false;
  off.driver.big_page_promotion = false;
  SystemConfig pin = off;
  pin.driver.thrash.enabled = true;
  pin.driver.thrash.mitigation = ThrashMitigation::kPin;

  const auto spec = make_random(16ULL << 20, 0x5eed);
  System off_system(off);
  const auto off_result = off_system.run(spec);
  System pin_system(pin);
  const auto pin_result = pin_system.run(spec);

  const BatchTotals pin_log = totals(pin_result.log);
  EXPECT_GT(pin_log.thrash_pins, 0u);
  EXPECT_GT(pin_result.remote_accesses, 0u);
  EXPECT_LT(pin_result.evictions * 5, off_result.evictions);
  EXPECT_LT(pin_result.kernel_time_ns, off_result.kernel_time_ns);
  EXPECT_EQ(pin_log.thrash_pins, pin_system.driver().thrashing().pins());
}

TEST(RobustnessSystem, ThrottleMitigationShieldsAndCharges) {
  SystemConfig cfg = small_config(8);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  cfg.driver.thrash.enabled = true;
  cfg.driver.thrash.mitigation = ThrashMitigation::kThrottle;
  System system(cfg);
  const auto result = system.run(make_random(16ULL << 20, 0x5eed));
  const BatchTotals robust = totals(result.log);
  EXPECT_GT(robust.thrash_throttles, 0u);
  EXPECT_EQ(robust.thrash_throttles, system.driver().thrashing().shields());
  EXPECT_GT(robust.throttle_ns, 0u);
}

TEST(RobustnessSystem, DetectionOnlyChangesNothing) {
  SystemConfig off = small_config(8);
  off.driver.prefetch_enabled = false;
  off.driver.big_page_promotion = false;
  SystemConfig detect = off;
  detect.driver.thrash.enabled = true;
  detect.driver.thrash.mitigation = ThrashMitigation::kNone;
  const auto spec = make_random(16ULL << 20, 0x5eed);
  System off_system(off);
  const auto a = off_system.run(spec);
  System detect_system(detect);
  const auto b = detect_system.run(spec);
  EXPECT_EQ(a.kernel_time_ns, b.kernel_time_ns);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(serialize_batch(a.log[i]), serialize_batch(b.log[i]));
  }
}

}  // namespace
}  // namespace uvmsim
