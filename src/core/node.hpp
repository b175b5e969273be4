// One UVM node: D driver address spaces serving S GPU fault sources on one
// discrete-event timeline — the paper's Figure 2, one host driver serving
// one or more GPU clients.
//
// Each driver is one UvmDriver with its own FaultInjector, an optional
// AccessCounterUnit and an optional Tracer. Each source is one GpuEngine
// bound to one GPU index of one driver. A single driver worker serves
// every source: an arbiter (FCFS / DRR / stride, uvm/tenant_sched.hpp)
// grants it to one source at a time, and Node::run is one event chain
//
//   launch -> GPU windows -> interrupt -> one event per batch (drain,
//   handle_batch, flush + replay, GPU window) -> worker idle -> ...
//   -> kernel completion -> access-counter drain
//
// System (1 driver, 1 source), MultiClientSystem (N single-GPU drivers,
// N sources) and MultiGpuSystem (1 driver with N GPU contexts, N sources)
// are presets that build a Node and map its result, so fault injection,
// the wedge watchdog and GPU resets, the post-kernel counter drain,
// tracing, per-run counter deltas and the metrics snapshot behave the same
// on every shape.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/fault_inject.hpp"
#include "core/event_engine.hpp"
#include "gpu/access_counters.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/gpu_engine.hpp"
#include "interconnect/pcie.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "uvm/driver_config.hpp"
#include "uvm/tenant.hpp"
#include "uvm/tenant_sched.hpp"
#include "uvm/uvm_driver.hpp"

namespace uvmsim {

struct SystemConfig {
  GpuConfig gpu;
  DriverConfig driver;
  PcieConfig pcie;
  ObsConfig obs;                // tracing; off by default
  std::uint64_t seed = 0x5C21;  // fault-jitter / duplicate-draw seed
};

/// Everything a run produces; the paper's per-application numbers are all
/// derivable from `log` (the per-batch metadata, summed by totals()) plus
/// these aggregates of the GPU engines, the copy engine, the fault injector
/// and the access-counter unit, which the log does not hold.
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

  // Fatal-fault injection (all zero unless driver.recovery is enabled AND
  // fatal injection fires) and the node's wedge watchdog. The recovery
  // actions themselves are in the batch log.
  std::uint64_t injected_ecc_faults = 0;   // double-bit ECC on resident chunk
  std::uint64_t injected_poison_faults = 0;
  std::uint64_t injected_ce_failures = 0;  // permanent channel failures
  std::uint64_t injected_wedges = 0;       // fault-buffer wedges
  std::uint64_t watchdog_stuck_wakeups = 0;

  // Access-counter channel (all zero unless driver.access_counters is
  // enabled), from the hardware unit and the injector; what the driver
  // serviced and migrated is in the batch log. The post-kernel drain
  // services every queued notification before run() returns.
  std::uint64_t counter_notifications = 0;         // queued by the GMMU
  std::uint64_t counter_notifications_dropped = 0; // buffer-full drops
  std::uint64_t counter_notifications_lost = 0;    // injected transit losses
};

/// One GPU fault source: GPU `gpu` of driver `driver`.
struct NodeSource {
  std::uint32_t driver = 0;
  std::uint32_t gpu = 0;
  std::uint64_t seed = 0;  // the GPU engine's fault-jitter seed
  TenantConfig tenant;     // arbiter weight and per-grant batch cap
};

/// What one source runs: `kernel` (which must outlive the run) with its
/// pages relocated to start at `base_page`.
struct NodeLaunch {
  const KernelDesc* kernel = nullptr;
  PageId base_page = 0;
};

struct NodeResult {
  /// One entry per driver, holding deltas over this run only; its GPU-side
  /// fields are summed over the driver's sources, and kernel_time_ns is
  /// the latest of their kernel times.
  std::vector<RunResult> per_driver;
  std::vector<SimTime> kernel_ns;        // per source: launch to done
  std::vector<TenantStats> per_source;   // the arbiter's contention ledger
  SimTime makespan_ns = 0;               // launch to the last completion
  SimTime worker_busy_ns = 0;            // sum of serviced batch durations
  std::uint64_t batches = 0;             // fault batches serviced
};

class Node {
 public:
  /// Driver d gets `memory_bytes[d]` of HBM per GPU context and a fault
  /// injector seeded config.driver.inject.seed + 0x9E37 * d. Throws
  /// std::invalid_argument for a config UvmDriver or TenantScheduler
  /// rejects.
  Node(const SystemConfig& config,
       const std::vector<std::uint64_t>& memory_bytes,
       std::vector<NodeSource> sources, TenantSchedConfig sched = {});

  /// Launch launches[s] on source s (one entry per source) and run the
  /// event chain until every kernel completes and every counter drain ran.
  /// The clock, the drivers and the engines carry over between runs. A run
  /// that throws can leave events queued that refer to it; run() then
  /// throws std::logic_error instead of executing them.
  NodeResult run(const std::vector<NodeLaunch>& launches);

  std::size_t num_sources() const noexcept { return sources_.size(); }
  UvmDriver& driver(std::size_t d) { return drivers_.at(d).driver; }
  const UvmDriver& driver(std::size_t d) const {
    return drivers_.at(d).driver;
  }
  GpuEngine& gpu(std::size_t s) { return sources_.at(s).gpu; }
  const FaultInjector& injector(std::size_t d) const {
    return drivers_.at(d).injector;
  }
  /// Driver d's access-counter unit; null when counters are disabled.
  const AccessCounterUnit* access_counters(std::size_t d) const {
    return drivers_.at(d).counters.get();
  }
  /// Driver d's trace; empty unless config.obs.trace was set.
  Tracer& tracer(std::size_t d) { return drivers_.at(d).tracer; }
  const Tracer& tracer(std::size_t d) const { return drivers_.at(d).tracer; }
  /// The node's whole-life accounting, read from the components' books
  /// (batch logs, engines, copy engines, DMA mappers, injectors and the
  /// chain's run totals) into a fresh snapshot. A group appears once its
  /// component ran and an event count once it is nonzero; a gauge sums
  /// over the node's engines or drivers, except driver.effective_batch_size,
  /// the largest over its drivers.
  MetricsRegistry metrics() const;
  const EventEngine& engine() const noexcept { return engine_; }
  const SystemConfig& config() const noexcept { return config_; }

 private:
  struct Chain;  // one run's event handlers and the state they share

  // The event chain's own whole-life books, over every completed run.
  struct ChainTotals {
    std::uint64_t runs = 0;
    SimTime kernel_time_ns = 0;  // makespans, summed
    SimTime gpu_compute_ns = 0;
    std::uint64_t interrupts = 0;          // fault interrupts (grants)
    std::uint64_t counter_interrupts = 0;  // post-kernel counter drains
    std::uint64_t forced_refills = 0;
  };

  struct DriverSlot {
    DriverSlot(const SystemConfig& config, std::uint64_t memory_bytes,
               std::uint32_t index);
    Tracer* sink;            // &tracer under config.obs.trace, else null
    FaultInjector injector;  // these three precede `driver`, which holds
    Tracer tracer;           // pointers into them
    std::unique_ptr<AccessCounterUnit> counters;  // null = disabled
    UvmDriver driver;
    std::vector<std::size_t> sources;  // indices into sources_
  };

  /// GPU g's page-table view of a multi-GPU driver: classify_for(g).
  struct GpuView final : ResidencyOracle {
    const UvmDriver* driver = nullptr;
    std::uint32_t gpu = 0;
    bool is_resident_on_gpu(PageId page) const override {
      return driver->is_resident_for(gpu, page);
    }
    PageLocation classify(PageId page) const override {
      return driver->classify_for(gpu, page);
    }
  };

  struct SourceSlot {
    SourceSlot(const SystemConfig& config, const NodeSource& spec,
               DriverSlot& slot);
    NodeSource spec;
    DriverSlot& slot;
    GpuEngine gpu;
    GpuView view;
    // The driver itself for a single-GPU driver, else this GPU's view.
    const ResidencyOracle* residency = nullptr;
  };

  /// The cumulative counters behind a RunResult's per-run deltas: GPU-side
  /// fields summed over the driver's sources.
  RunResult totals(const DriverSlot& slot) const;

  SystemConfig config_;
  TenantScheduler scheduler_;  // never charged: each run starts from a copy
  ChainTotals chain_totals_;
  std::deque<DriverSlot> drivers_;  // deques: slots never move
  std::deque<SourceSlot> sources_;
  EventEngine engine_;  // clock advances monotonically across run() calls
};

}  // namespace uvmsim
