// Public entry point: a complete UVM system (GPU + driver + host OS +
// interconnect) that executes workloads and produces batch logs.
//
// Typical use (see examples/quickstart.cpp):
//
//   uvmsim::SystemConfig config = uvmsim::presets::scaled_titan_v(256);
//   uvmsim::System system(config);
//   auto spec = uvmsim::make_stream_triad(1 << 22);
//   uvmsim::RunResult result = system.run(spec);
//   // result.log has one BatchRecord per serviced fault batch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fault_inject.hpp"
#include "core/event_engine.hpp"
#include "gpu/access_counters.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/gpu_engine.hpp"
#include "interconnect/pcie.hpp"
#include "obs/obs.hpp"
#include "uvm/driver_config.hpp"
#include "uvm/uvm_driver.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

struct SystemConfig {
  GpuConfig gpu;
  DriverConfig driver;
  PcieConfig pcie;
  ObsConfig obs;                // tracing/metrics; both off by default
  std::uint64_t seed = 0x5C21;  // fault-jitter / duplicate-draw seed
};

/// Everything a run produces; the paper's per-application numbers are all
/// derivable from `log` (the per-batch metadata) plus these aggregates.
struct RunResult {
  BatchLog log;
  SimTime kernel_time_ns = 0;    // launch-to-completion wall time (Table 4)
  SimTime batch_time_ns = 0;     // sum of batch durations (Table 4)
  SimTime gpu_compute_ns = 0;    // GPU time on resident data
  std::uint64_t total_faults = 0;      // raw fault-buffer arrivals
  std::uint64_t duplicate_emissions = 0;
  std::uint64_t remote_accesses = 0;  // resolved via DMA remote mapping
  std::uint64_t replays = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  std::uint64_t forced_throttle_refills = 0;  // wedge-recovery events

  // Robustness observability (all zero unless fault injection and/or
  // thrashing mitigation are enabled).
  std::uint64_t faults_dropped_full = 0;   // HW buffer overflow drops
  std::uint64_t faults_flushed = 0;        // pre-replay flush discards
  std::uint64_t interrupts_delayed = 0;    // injected wakeup delays
  std::uint64_t interrupts_lost = 0;       // injected lost interrupts
  std::uint64_t injected_transfer_errors = 0;
  std::uint64_t injected_dma_errors = 0;
  std::uint64_t injected_storm_faults = 0;
  std::uint64_t transfer_retries = 0;      // driver backoff retries (copy)
  std::uint64_t dma_map_retries = 0;       // driver backoff retries (DMA)
  std::uint64_t service_aborts = 0;        // retry budgets exhausted
  std::uint64_t thrash_pins = 0;           // pin+remote-map mitigations
  std::uint64_t thrash_throttles = 0;      // throttle-window mitigations

  // Fatal-fault containment and the recovery ladder (all zero unless
  // driver.recovery is enabled AND fatal injection fires). Injected_*
  // come from the injector; the recovery actions from the batch log;
  // watchdog_stuck_wakeups from the System escalation loop.
  std::uint64_t injected_ecc_faults = 0;   // double-bit ECC on resident chunk
  std::uint64_t injected_poison_faults = 0;
  std::uint64_t injected_ce_failures = 0;  // permanent channel failures
  std::uint64_t injected_wedges = 0;       // fault-buffer wedges
  std::uint64_t faults_cancelled = 0;      // recovery tier 1
  std::uint64_t pages_retired = 0;         // recovery tier 2
  std::uint64_t chunks_retired = 0;
  std::uint64_t channel_resets = 0;        // recovery tier 3
  std::uint64_t gpu_resets = 0;            // recovery tier 4
  std::uint64_t watchdog_stuck_wakeups = 0;

  // Access-counter channel (all zero unless driver.access_counters is
  // enabled). Queued/dropped/lost come from the hardware unit and the
  // injector; serviced/promoted/unpinned from the batch log. Queued may
  // exceed serviced when notifications are still pending at kernel end.
  std::uint64_t counter_notifications = 0;         // queued by the GMMU
  std::uint64_t counter_notifications_serviced = 0;
  std::uint64_t counter_notifications_dropped = 0; // buffer-full drops
  std::uint64_t counter_notifications_lost = 0;    // injected transit losses
  std::uint64_t counter_pages_promoted = 0;
  std::uint64_t counter_unpins = 0;
  std::uint64_t counter_evictions = 0;
};

struct RunOptions {
  /// Re-launch against the allocations of the previous run of the same
  /// spec (warm data, no new managed_alloc calls) — the iterative-kernel
  /// pattern. Requires a prior non-reusing run.
  bool reuse_allocations = false;
};

class System {
 public:
  explicit System(SystemConfig config);

  /// Allocate the spec's managed buffers (applying host init), launch the
  /// kernel, and run fault servicing to completion.
  RunResult run(const WorkloadSpec& spec, RunOptions options = {});

  UvmDriver& driver() noexcept { return driver_; }
  const UvmDriver& driver() const noexcept { return driver_; }
  GpuEngine& gpu() noexcept { return gpu_; }
  const SystemConfig& config() const noexcept { return config_; }

  const FaultInjector& injector() const noexcept { return injector_; }

  /// The GPU's access-counter unit; null when counters are disabled.
  const AccessCounterUnit* access_counters() const noexcept {
    return counters_.get();
  }

  /// The run-stream's recorded trace/metrics. Empty unless the matching
  /// SystemConfig::obs flag was set; events accumulate across run() calls.
  const Tracer& tracer() const noexcept { return tracer_; }
  Tracer& tracer() noexcept { return tracer_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  /// The discrete-event engine driving run(); stats accumulate across
  /// runs (events posted/executed, idle ns skipped).
  const EventEngine& engine() const noexcept { return engine_; }
  const EventEngine::Stats& engine_stats() const noexcept {
    return engine_.stats();
  }

 private:
  /// The nullable handle handed to every layer: points at the members
  /// above for whichever sinks SystemConfig::obs enables.
  Obs obs_handle() noexcept {
    return Obs{config_.obs.trace ? &tracer_ : nullptr,
               config_.obs.metrics ? &metrics_ : nullptr};
  }

  SystemConfig config_;
  FaultInjector injector_;  // must outlive driver_ and gpu_ (they hold refs)
  Tracer tracer_;           // must precede driver_/gpu_ (they hold pointers)
  MetricsRegistry metrics_;
  // Access-counter hardware unit, constructed only when enabled (must
  // precede driver_/gpu_, which hold pointers into it).
  std::unique_ptr<AccessCounterUnit> counters_;
  UvmDriver driver_;
  GpuEngine gpu_;
  EventEngine engine_;  // clock advances monotonically across run() calls
  PageId last_base_page_ = 0;
  bool has_run_ = false;
};

namespace presets {

/// The paper's testbed: Titan V over PCIe 3.0 x16, default driver policy.
SystemConfig titan_v();

/// Titan V fault-path constraints with GPU memory scaled down to
/// `gpu_memory_mb` so oversubscription experiments run in seconds.
SystemConfig scaled_titan_v(std::uint64_t gpu_memory_mb);

}  // namespace presets

}  // namespace uvmsim
