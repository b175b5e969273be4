#include "core/system.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace uvmsim {

System::System(SystemConfig config)
    : config_(config),
      injector_(config.driver.inject),
      driver_(config.driver, config.gpu.memory_bytes, config.gpu.num_sms,
              config.pcie, &injector_, obs_handle()),
      gpu_(config.gpu, config.seed) {
  gpu_.set_fault_injector(&injector_);
  gpu_.set_obs(obs_handle());
  if (config_.driver.access_counters.enabled) {
    // The driver programs the counter registers at init; the GPU engine
    // feeds the unit at µTLB resolution and the driver services it after
    // each fault batch. Disabled (the default) leaves every hook null.
    const auto& ac = config_.driver.access_counters;
    counters_ = std::make_unique<AccessCounterUnit>(
        ac.granularity_pages, ac.threshold, ac.buffer_entries);
    counters_->set_fault_injector(&injector_);
    gpu_.set_access_counters(counters_.get());
    driver_.set_access_counters(counters_.get());
  }
  if (config_.obs.trace) {
    tracer_.set_track_name(tracks::kSim, "sim");
    tracer_.set_track_name(tracks::kDriver, "uvm driver");
    tracer_.set_track_name(tracks::kGpu, "gpu");
    if (config_.driver.access_counters.enabled) {
      tracer_.set_track_name(tracks::kCounters, "access counters");
    }
    if (config_.driver.recovery.enabled) {
      tracer_.set_track_name(tracks::kRecovery, "recovery");
    }
    if (config_.driver.parallelism.active()) {
      for (unsigned k = 0; k < config_.driver.parallelism.workers; ++k) {
        tracer_.set_track_name(tracks::kWorkerBase + k,
                               "servicing worker " + std::to_string(k));
      }
    }
  }
}

RunResult System::run(const WorkloadSpec& spec, RunOptions options) {
  // Managed allocations (host init included) before launch. Builders
  // number pages from 0; the VA space places this run's buffers at the
  // next free VABlock, so the kernel is launched with that base offset.
  PageId base_page;
  if (options.reuse_allocations) {
    if (!has_run_) {
      throw std::logic_error(
          "uvmsim: reuse_allocations requires a prior run");
    }
    base_page = last_base_page_;
  } else {
    base_page = driver_.va_space().total_pages();
    for (const auto& alloc : spec.allocs) {
      driver_.managed_alloc(alloc.bytes, alloc.name, alloc.init,
                            alloc.advise);
    }
    last_base_page_ = base_page;
    has_run_ = true;
  }

  RunResult result;
  const SimTime t0 = engine_.now();
  const std::uint64_t faults_before = gpu_.total_faults_emitted();
  const std::uint64_t dups_before = gpu_.total_duplicate_emissions();
  const std::uint64_t remote_before = gpu_.remote_accesses();
  const std::uint64_t replays_before = gpu_.replays_seen();
  const std::uint64_t evictions_before = driver_.total_evictions();
  const std::uint64_t h2d_before = driver_.copy_engine().bytes_to_device();
  const std::uint64_t d2h_before = driver_.copy_engine().bytes_to_host();
  const std::size_t log_before = driver_.log().size();
  const std::uint64_t dropped_before = gpu_.fault_buffer().total_dropped_full();
  const std::uint64_t flushed_before = gpu_.fault_buffer().total_flushed();
  const std::uint64_t irq_delays_before = injector_.interrupts_delayed();
  const std::uint64_t irq_losses_before = injector_.interrupts_lost();
  const std::uint64_t inj_xfer_before = injector_.transfer_errors_injected();
  const std::uint64_t inj_dma_before = injector_.dma_map_errors_injected();
  const std::uint64_t inj_storm_before = injector_.storm_faults_injected();
  const std::uint64_t ctr_notif_before =
      counters_ ? counters_->total_notifications() : 0;
  const std::uint64_t ctr_dropped_before =
      counters_ ? counters_->total_dropped_full() : 0;
  const std::uint64_t ctr_lost_before =
      injector_.counter_notifications_lost();
  const std::uint64_t inj_ecc_before = injector_.ecc_faults_injected();
  const std::uint64_t inj_poison_before = injector_.poison_faults_injected();
  const std::uint64_t inj_ce_before = injector_.ce_failures_injected();
  const std::uint64_t inj_wedge_before = injector_.wedges_injected();
  std::uint64_t dropped_seen = dropped_before;

  Tracer* const tracer = config_.obs.trace ? &tracer_ : nullptr;
  MetricsRegistry* const metrics = config_.obs.metrics ? &metrics_ : nullptr;

  // ---- Event chain ----------------------------------------------------
  // The run is a chain of discrete events on engine_. Each handler does
  // its component's work at the event's timestamp, charges durations via
  // advance_to/advance_by, and posts the successor event; idle gaps
  // between an event and its successor are jumped by the engine. The
  // handlers below perform the same operations, in the same order, with
  // the same clock arithmetic as the retired imperative loop, so fault
  // logs, traces, and metrics are byte-identical by construction.

  EventEngine& eng = engine_;

  // One GPU window: let every runnable warp issue until stalled, advance
  // simulated time by the window's compute share, and trace the window.
  const auto run_gpu_window = [&] {
    const SimTime g0 = eng.now();
    const auto g = gpu_.generate(eng.now(), driver_);
    eng.advance_by(g.compute_ns +
                   g.remote_requests *
                       config_.gpu.remote_request_pipelined_ns);
    result.gpu_compute_ns += g.compute_ns;
    if (tracer && (eng.now() > g0 || g.faults_pushed > 0)) {
      tracer->span(tracks::kGpu, "compute", g0, eng.now(),
                   {{"faults", g.faults_pushed},
                    {"duplicates", g.duplicate_pushes},
                    {"remote", g.remote_requests}});
    }
  };

  // The batch guard bounds total batches; real runs are far below it.
  const std::uint64_t max_batches =
      1'000'000 + 16 * spec.kernel.total_accesses();
  std::uint64_t batches = 0;
  SimTime pending_first = 0;  // earliest arrival behind the next interrupt

  // Watchdog state for the fatal wedged-buffer class: consecutive driver
  // wakeups that found the buffer presenting nothing escalate batch-stuck
  // -> channel reset -> full GPU reset (recovery tiers 3/4). All dead
  // state unless DriverConfig::recovery is enabled and a wedge fires.
  const bool recovery_armed = config_.driver.recovery.enabled;
  const std::uint32_t stuck_threshold =
      std::max(1u, config_.driver.recovery.watchdog_stuck_wakeups);
  std::uint32_t stuck_wakeups = 0;
  bool channel_reset_tried = false;
  bool wedge_needs_gpu_reset = false;

  // Kernel completion: record kernel time, then drain the counter
  // channel. Every fault is serviced, yet remote traffic from late GPU
  // windows can leave the notification buffer non-empty with no fault
  // interrupt left to piggyback on; the counter interrupt wakes the
  // driver one more time (real nvidia-uvm services access counters
  // between kernels too). Charged after kernel completion: an iterative
  // workload's next launch finds its hot regions promoted.
  const auto finish_kernel = [&] {
    result.kernel_time_ns = eng.now() - t0;
    if (counters_ && !counters_->empty()) {
      const SimTime wake = std::max(eng.now(), counters_->next_arrival()) +
                           driver_.pcie().config().interrupt_latency_ns +
                           driver_.config().wakeup_ns;
      eng.post(wake, components::kCounters, [&](SimTime now) {
        if (tracer) {
          tracer->instant(tracks::kSim, "counter_interrupt", now,
                          {{"pending", counters_->pending()}});
        }
        if (metrics) metrics->add("sim.counter_interrupts");
        while (!counters_->empty()) {
          eng.advance_to(driver_.service_counter_interrupt(eng.now()).end_ns);
        }
      });
    }
  };

  std::function<void()> schedule_next;
  std::function<void(SimTime)> service_batch;
  std::function<void(SimTime)> on_interrupt;
  std::function<void(SimTime)> on_forced_refill;

  // Decide the successor event after a GPU window: done, wedged-throttle
  // recovery, or the interrupt for the earliest pending fault.
  schedule_next = [&] {
    if (gpu_.all_done() && gpu_.fault_buffer().empty()) {
      finish_kernel();
      return;
    }
    if (gpu_.fault_buffer().empty()) {
      eng.post(eng.now(), components::kGpu, on_forced_refill);
      return;
    }
    // Injected fatal wedge: the fault buffer stops presenting records
    // until the watchdog escalates to a reset. Probed once per scheduling
    // decision while unwedged (zero draws unless armed); the wedge's
    // severity — channel reset sufficient, or full GPU reset needed — is
    // drawn with it.
    if (recovery_armed && !gpu_.fault_buffer().wedged() &&
        injector_.fault_buffer_wedge()) {
      gpu_.fault_buffer().set_wedged();
      wedge_needs_gpu_reset = injector_.wedge_needs_gpu_reset();
      if (tracer) {
        tracer->instant(tracks::kRecovery, "buffer_wedged", eng.now(),
                        {{"needs_gpu_reset", wedge_needs_gpu_reset ? 1u : 0u}});
      }
      if (metrics) metrics->add("sim.buffer_wedges");
    }
    // The interrupt for the earliest pending fault wakes the driver
    // worker; it can only read records the GMMU has written by then. An
    // injected lost interrupt means the wakeup only happens through the
    // driver's watchdog; a delayed one adds its scheduling latency. Both
    // probes are constant-zero when injection is off.
    const SimTime first = *gpu_.fault_buffer().next_arrival();
    SimTime irq_extra = 0;
    if (injector_.interrupt_loss()) {
      irq_extra = injector_.config().interrupt_recovery_ns;
    } else {
      irq_extra = injector_.interrupt_delay();
    }
    pending_first = first;
    const SimTime wake = std::max(eng.now(), first) +
                         driver_.pcie().config().interrupt_latency_ns +
                         driver_.config().wakeup_ns + irq_extra;
    eng.post(wake, components::kDriver, on_interrupt);
  };

  // GPU made no faults but is not done: every runnable access is either
  // blocked by the throttle with a drained buffer (possible only after
  // hardware drops) or awaiting a replay. Model the throttle-timer
  // expiry: refill tokens, replay, regenerate.
  on_forced_refill = [&](SimTime now) {
    ++result.forced_throttle_refills;
    if (tracer) tracer->instant(tracks::kSim, "forced_token_refill", now);
    if (metrics) metrics->add("sim.forced_token_refills");
    gpu_.force_token_refill();
    gpu_.on_replay();
    run_gpu_window();
    if (gpu_.fault_buffer().empty()) {
      if (gpu_.all_done()) {
        finish_kernel();
        return;
      }
      throw std::logic_error("uvmsim: fault generation wedged");
    }
    schedule_next();
  };

  // The woken driver worker services batches until no arrived faults
  // remain, then sleeps (faults still in flight re-raise the interrupt
  // via schedule_next). One event per batch.
  service_batch = [&](SimTime) {
    auto raw = gpu_.fault_buffer().drain_arrived(
        driver_.effective_batch_size(), eng.now());
    if (raw.empty()) {
      // A wedged buffer presents nothing: consecutive stuck wakeups drive
      // the watchdog up the ladder — channel reset first (tier 3; clears
      // a channel-severity wedge), then a full GPU reset (tier 4).
      if (recovery_armed && gpu_.fault_buffer().wedged()) {
        ++result.watchdog_stuck_wakeups;
        if (++stuck_wakeups >= stuck_threshold) {
          stuck_wakeups = 0;
          if (!channel_reset_tried) {
            channel_reset_tried = true;
            eng.advance_to(driver_.service_channel_reset(eng.now()).end_ns);
            if (!wedge_needs_gpu_reset) {
              gpu_.fault_buffer().clear_wedged();
              channel_reset_tried = false;
            }
          } else {
            // The driver tears down and rebuilds its state, then the GPU
            // engine drops all stale buffer/µTLB state and the kernel
            // re-faults its working set.
            eng.advance_to(driver_.service_gpu_reset(eng.now()).end_ns);
            gpu_.full_reset();
            channel_reset_tried = false;
            wedge_needs_gpu_reset = false;
            run_gpu_window();
          }
        }
        if (++batches > max_batches) {
          throw std::logic_error(
              "uvmsim: batch guard exceeded (livelock?)");
        }
      }
      schedule_next();
      return;
    }
    stuck_wakeups = 0;
    const std::uint64_t dropped_now =
        gpu_.fault_buffer().total_dropped_full();
    const std::uint64_t gpu_resets_before = driver_.recovery().gpu_resets();
    const BatchRecord& record = driver_.handle_batch(
        raw, eng.now(),
        static_cast<std::uint32_t>(dropped_now - dropped_seen));
    dropped_seen = dropped_now;
    eng.advance_to(record.end_ns);

    if (driver_.recovery().gpu_resets() != gpu_resets_before) {
      // The bottom half escalated to a full GPU reset (retired-page pool
      // overflow): reset the engine side too. full_reset subsumes the
      // pre-replay flush and the replay's µTLB clear.
      gpu_.full_reset();
    } else {
      if (driver_.config().flush_on_replay) {
        gpu_.fault_buffer().flush_arrived(eng.now());
      }
      gpu_.on_replay();
    }
    run_gpu_window();

    if (++batches > max_batches) {
      throw std::logic_error("uvmsim: batch guard exceeded (livelock?)");
    }
    eng.post(eng.now(), components::kDriver, service_batch);
  };

  on_interrupt = [&](SimTime now) {
    if (tracer) {
      tracer->instant(tracks::kSim, "interrupt", now,
                      {{"first_arrival", pending_first}});
    }
    if (metrics) metrics->add("sim.interrupts");
    eng.post(now, components::kDriver, service_batch);
  };

  // Kernel launch seeds the chain; run() drains it (the chain ends when
  // finish_kernel posts nothing further).
  eng.post(eng.now(), components::kGpu, [&](SimTime) {
    gpu_.launch(spec.kernel, base_page);
    run_gpu_window();
    schedule_next();
  });
  eng.run();
  // ---- End event chain ------------------------------------------------

  result.log.assign(driver_.log().begin() + log_before, driver_.log().end());
  for (const auto& rec : result.log) result.batch_time_ns += rec.duration_ns();
  result.total_faults = gpu_.total_faults_emitted() - faults_before;
  result.duplicate_emissions =
      gpu_.total_duplicate_emissions() - dups_before;
  result.remote_accesses = gpu_.remote_accesses() - remote_before;
  result.replays = gpu_.replays_seen() - replays_before;
  result.evictions = driver_.total_evictions() - evictions_before;
  result.bytes_h2d = driver_.copy_engine().bytes_to_device() - h2d_before;
  result.bytes_d2h = driver_.copy_engine().bytes_to_host() - d2h_before;
  result.faults_dropped_full =
      gpu_.fault_buffer().total_dropped_full() - dropped_before;
  result.faults_flushed = gpu_.fault_buffer().total_flushed() - flushed_before;
  result.interrupts_delayed =
      injector_.interrupts_delayed() - irq_delays_before;
  result.interrupts_lost = injector_.interrupts_lost() - irq_losses_before;
  result.injected_transfer_errors =
      injector_.transfer_errors_injected() - inj_xfer_before;
  result.injected_dma_errors =
      injector_.dma_map_errors_injected() - inj_dma_before;
  result.injected_storm_faults =
      injector_.storm_faults_injected() - inj_storm_before;
  result.injected_ecc_faults =
      injector_.ecc_faults_injected() - inj_ecc_before;
  result.injected_poison_faults =
      injector_.poison_faults_injected() - inj_poison_before;
  result.injected_ce_failures =
      injector_.ce_failures_injected() - inj_ce_before;
  result.injected_wedges = injector_.wedges_injected() - inj_wedge_before;
  for (const auto& rec : result.log) {
    result.transfer_retries += rec.counters.transfer_retries;
    result.dma_map_retries += rec.counters.dma_map_retries;
    result.service_aborts += rec.counters.service_aborts;
    result.thrash_pins += rec.counters.thrash_pins;
    result.thrash_throttles += rec.counters.thrash_throttles;
    result.faults_cancelled += rec.counters.faults_cancelled;
    result.pages_retired += rec.counters.pages_retired;
    result.chunks_retired += rec.counters.chunks_retired;
    result.channel_resets += rec.counters.channel_resets;
    result.gpu_resets += rec.counters.gpu_resets;
    result.counter_notifications_serviced += rec.counters.ctr_notifications;
    result.counter_pages_promoted += rec.counters.ctr_pages_promoted;
    result.counter_unpins += rec.counters.ctr_unpins;
    result.counter_evictions += rec.counters.ctr_evictions;
  }
  if (counters_) {
    result.counter_notifications =
        counters_->total_notifications() - ctr_notif_before;
    result.counter_notifications_dropped =
        counters_->total_dropped_full() - ctr_dropped_before;
  }
  result.counter_notifications_lost =
      injector_.counter_notifications_lost() - ctr_lost_before;
  if (metrics) {
    metrics->add("sim.runs");
    metrics->add("sim.kernel_time_ns", result.kernel_time_ns);
    metrics->add("sim.gpu_compute_ns", result.gpu_compute_ns);
  }
  return result;
}

namespace presets {

SystemConfig titan_v() {
  SystemConfig config;  // defaults are the Titan V / PCIe 3.0 testbed
  return config;
}

SystemConfig scaled_titan_v(std::uint64_t gpu_memory_mb) {
  SystemConfig config;
  config.gpu.memory_bytes = gpu_memory_mb * 1024 * 1024;
  return config;
}

}  // namespace presets

}  // namespace uvmsim
