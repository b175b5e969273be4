// The UVM driver: owner of the memory-management state and the batch
// servicing engine (the host-side box of Fig 2).
//
// Exposes the operations the simulator's driver worker performs — fetch a
// batch from the fault buffer, service it, replay — plus the managed-
// allocation API user code calls before launching kernels.
//
// One driver serves DriverConfig::multi_gpu.num_gpus GPUs (one by
// default) through a single code path: it owns one memory context per
// GPU and the interconnect topology between them, and a single-GPU node
// is simply the one-context, one-link case.
//
// GPU residency lives in the VA space's word store (VaSpace::
// gpu_residency()); the servicers change it through VaBlockState, and the
// driver lends it to the GPU engine as its ResidencyOracle table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "gpu/access_counters.hpp"
#include "gpu/gpu_engine.hpp"
#include "gpu/gpu_memory.hpp"
#include "hostos/dma.hpp"
#include "interconnect/copy_engine.hpp"
#include "interconnect/pcie.hpp"
#include "interconnect/topology.hpp"
#include "obs/obs.hpp"
#include "uvm/batch.hpp"
#include "uvm/counter_servicer.hpp"
#include "uvm/driver_config.hpp"
#include "uvm/fault_servicer.hpp"
#include "uvm/gpu_ctx.hpp"
#include "uvm/recovery.hpp"
#include "uvm/va_space.hpp"

namespace uvmsim {

class UvmDriver final : public ResidencyOracle {
 public:
  /// `gpu_memory_bytes` is each GPU's HBM. `injector` (optional) is the
  /// cross-layer fault-injection schedule shared with the GPU engine and
  /// the node's event chain; the driver consults it for transient
  /// copy/DMA errors on the fault path. `obs` (optional) carries the
  /// node's tracing/metrics sinks; it is forwarded to the servicer, copy
  /// engine, and DMA mapper, and the driver itself mirrors every
  /// BatchRecord into the registry after each batch.
  ///
  /// Throws std::invalid_argument for a config no run can complete: a
  /// zero batch size (or a zero adaptive-sizing bound), zero GPUs, or less
  /// GPU memory than one 2 MB chunk.
  UvmDriver(DriverConfig config, std::uint64_t gpu_memory_bytes,
            std::uint32_t num_sms, PcieConfig pcie = {},
            FaultInjector* injector = nullptr, Obs obs = {});

  /// cudaMallocManaged equivalent: reserve managed pages and apply the
  /// host initialization pattern (plus optional cudaMemAdvise placement).
  const AllocationInfo& managed_alloc(std::uint64_t bytes, std::string name,
                                      HostInit init,
                                      MemAdvise advise = MemAdvise::kNone);

  /// Service one already-drained batch of faults starting at `start` and
  /// append the record to the batch log. Returns the appended record.
  /// `buffer_dropped` annotates how many fault records the HW buffer
  /// dropped (overflow) since the previous batch — observability for
  /// overflow storms (the node's event chain supplies the delta).
  const BatchRecord& handle_batch(const std::vector<FaultRecord>& raw,
                                  SimTime start,
                                  std::uint32_t buffer_dropped = 0);

  /// Counter-interrupt bottom half with no fault batch attached: one
  /// servicing pass against the access-counter unit, appended to the log
  /// as a counter-only record starting at `start`. The node's event chain
  /// calls this when the GPU goes idle with notifications still buffered
  /// (real nvidia-uvm drains the counter channel between kernels too).
  /// Requires set_access_counters.
  const BatchRecord& service_counter_interrupt(SimTime start);

  /// Watchdog-driven recovery bottom halves (core/node escalation
  /// tiers). Each appends a recovery-only record to the batch log so the
  /// reset and its latency are first-class, replay-checkable batch data.
  /// Tier 3: reset the copy-engine channel at `start`.
  const BatchRecord& service_channel_reset(SimTime start);
  /// Tier 4: full GPU reset at `start` — VA-space teardown and driver-
  /// state rebuild. The caller must reset the GPU engine side too
  /// (GpuEngine::full_reset) so kernels re-fault their working set.
  const BatchRecord& service_gpu_reset(SimTime start);

  // ResidencyOracle: the GPU's page-table view.
  bool is_resident_on_gpu(PageId page) const override {
    return space_.is_gpu_resident(page);
  }

  /// Host-pinned allocations resolve remotely (DMA mapping) instead of
  /// faulting; everything else migrates on fault as usual. Blocks pinned
  /// by the thrashing mitigation behave like advised-host pages while the
  /// pin lasts.
  PageLocation classify(PageId page) const override {
    if (space_.is_gpu_resident(page)) return PageLocation::kGpuResident;
    return classify_non_resident(page);
  }

  /// The VA space's residency store, read by the engine in place. A set
  /// bit is exactly classify()'s kGpuResident (classify() tests residency
  /// before any retire/advise/pin lookup). `misses_fault` holds while no
  /// non-resident page can resolve remotely: no allocation prefers the
  /// host, no page is retired, and thrashing detection (whose pins
  /// remote-map) is off.
  Table residency_table() const override {
    const std::vector<PageMask>& store = space_.gpu_residency();
    return {store.data(), store.size(), !any_remote_miss()};
  }

  /// Per-GPU page-table view: a resident page is local only to the owner
  /// GPU; peers that hold a remote NVLink mapping into the owner's HBM
  /// resolve it remotely; everyone else faults. The non-resident tail
  /// matches classify(). GPU 0 with num_gpus = 1 is exactly classify().
  PageLocation classify_for(std::uint32_t gpu, PageId page) const {
    if (space_.is_gpu_resident(page)) {
      const VaBlockState& b = space_.block(va_block_of(page));
      if (b.owner_gpu() == gpu) return PageLocation::kGpuResident;
      if (b.peer_mapped(gpu) &&
          b.peer_pages().test(page_index_in_block(page))) {
        return PageLocation::kRemoteMapped;
      }
      return PageLocation::kFaultRequired;
    }
    return classify_non_resident(page);
  }

  bool is_resident_for(std::uint32_t gpu, PageId page) const {
    return space_.is_gpu_resident_on(gpu, page);
  }

  const DriverConfig& config() const noexcept { return config_; }
  VaSpace& va_space() noexcept { return space_; }
  const VaSpace& va_space() const noexcept { return space_; }
  /// GPU `gpu`'s HBM chunk pool.
  const GpuMemory& gpu_memory(std::uint32_t gpu = 0) const {
    return gpus_.at(gpu).memory;
  }
  const Topology& topology() const noexcept { return topo_; }
  PcieLink& pcie() noexcept { return pcie_; }
  const CopyEngine& copy_engine() const noexcept { return copy_; }
  const ThrashingDetector& thrashing() const noexcept { return thrash_; }
  const RecoveryManager& recovery() const noexcept { return recovery_; }

  /// Attach the GPU's access-counter unit: after each fault batch the
  /// driver runs one counter-servicing pass against it (real nvidia-uvm
  /// services replayable faults first, then access counters). May be null
  /// (counters disabled — the default); the driver does not own it.
  void set_access_counters(AccessCounterUnit* counters) noexcept {
    counters_ = counters;
  }
  const CounterServicer& counter_servicer() const noexcept {
    return counter_servicer_;
  }

  const BatchLog& log() const noexcept { return log_; }

  std::uint64_t total_evictions() const noexcept {
    return servicer_.total_evictions();
  }
  std::uint64_t total_counter_evictions() const noexcept {
    return servicer_.total_counter_evictions();
  }

  /// Current fetch limit: the configured batch size, or the adaptive
  /// controller's value when DriverConfig::adaptive_batch_size is on.
  std::uint32_t effective_batch_size() const noexcept {
    return effective_batch_size_;
  }

  /// Host-OS time moved off the fault path by the async_host_ops
  /// extension (0 when the extension is off).
  SimTime async_background_time() const noexcept { return async_ns_; }

 private:
  /// The shared tail of classify() and classify_for() for a page that is
  /// not GPU-resident: retired, advised-host and thrash-pinned pages
  /// resolve remotely; everything else faults. Every branch that returns
  /// anything but kFaultRequired must also make any_remote_miss() true:
  /// residency_table() promises the engine that misses fault while it is
  /// false.
  PageLocation classify_non_resident(PageId page) const {
    // Retired pages (recovery tier 2) are permanently host-pinned; the
    // any_retired flag keeps this a dead branch until a retirement fires.
    if (space_.any_retired() && space_.is_page_retired(page)) {
      return PageLocation::kRemoteMapped;
    }
    if (space_.advise_of(page) == MemAdvise::kPreferredLocationHost) {
      return PageLocation::kRemoteMapped;
    }
    if (thrash_.enabled() &&
        thrash_.is_pinned(va_block_of(page), clock_ns_)) {
      return PageLocation::kRemoteMapped;
    }
    return PageLocation::kFaultRequired;
  }

  /// Whether some non-resident page may resolve remotely, i.e. whether
  /// classify_non_resident() can return anything but kFaultRequired: one
  /// term per remote branch there.
  bool any_remote_miss() const {
    return space_.any_retired() || space_.any_host_preferred() ||
           thrash_.enabled();
  }

  /// Mirror one completed batch into the metrics registry: every timer and
  /// counter under its metric name (differential-testable against the
  /// batch log), and per-batch shape distributions as histograms. A no-op
  /// when metrics are off.
  void record_batch_metrics(const BatchRecord& record);

  DriverConfig config_;
  Obs obs_;
  VaSpace space_;
  PcieLink pcie_;
  Topology topo_;
  GpuMemCtxs gpus_;  // one per GPU; sized once, never resized
  CopyEngine copy_;
  DmaMapper dma_;
  ThrashingDetector thrash_;
  RecoveryManager recovery_;
  FaultServicer servicer_;
  CounterServicer counter_servicer_;
  AccessCounterUnit* counters_ = nullptr;  // not owned; null = disabled
  BatchLog log_;
  SimTime async_ns_ = 0;
  SimTime clock_ns_ = 0;  // end of the last serviced batch (pin expiry)
  std::uint32_t effective_batch_size_ = 256;
};

}  // namespace uvmsim
