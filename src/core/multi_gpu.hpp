// A multi-GPU UVM node: N GPUs sharing ONE driver, one VA space, and an
// interconnect topology (PCIe host links + optional NVLink peer links).
//
// This is the multi-device configuration the paper positions its
// single-GPU study as the foundation for (§1): the same driver worker,
// fault buffers, and batch pipeline, but page placement now spans peer
// HBM pools. Unlike MultiClientSystem (independent tenants, private VA
// spaces), every GPU here faults into the SAME VA space: a VABlock is
// owned by whichever GPU's fault the driver serviced first, and a peer
// GPU touching it either remote-maps the owner's HBM over NVLink or
// migrates the pages peer-to-peer through the topology's copy paths
// (FaultServicer::service_peer_block).
//
// Arbitration is the FCFS discipline of the multi-tenant server: each
// contending GPU posts its earliest fault arrival as an event keyed
// (time, component) and the worker wakes for the oldest, ties going to
// the lowest GPU index, so identical runs are byte-identical. Faults are
// stamped with their source GPU as they drain, so the servicer knows
// which page tables to update and where to place the pages.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "interconnect/topology.hpp"
#include "workloads/peer_share.hpp"

namespace uvmsim {

/// Per-link usage over one run (the `analyze` / ablation link table).
struct LinkReport {
  std::string name;
  LinkKind kind = LinkKind::kPcie;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
  SimTime busy_ns = 0;
  double utilization = 0.0;  // busy_ns / makespan
};

struct MultiGpuResult {
  /// Fleet-wide aggregate: the shared driver's batch log plus totals
  /// summed over every GPU engine. kernel_time_ns is the makespan.
  RunResult aggregate;
  std::vector<SimTime> per_gpu_kernel_ns;  // launch-to-done per GPU
  SimTime makespan_ns = 0;
  std::uint64_t batches_serviced = 0;

  // Peer-placement ledger (sums over the batch log).
  std::uint64_t peer_pages_migrated = 0;
  std::uint64_t peer_maps = 0;
  std::uint64_t peer_placements = 0;
  std::uint64_t bytes_peer = 0;

  std::vector<LinkReport> links;
};

class MultiGpuSystem {
 public:
  /// config.driver.multi_gpu sets the GPU count, topology, and placement
  /// policy; each GPU gets its own HBM pool of config.gpu.memory_bytes
  /// and a decorrelated fault-jitter seed.
  explicit MultiGpuSystem(SystemConfig config);

  /// Allocate the workload's buffers in the shared VA space, launch
  /// kernels[g] on GPU g, and service all faults with the single shared
  /// worker until every kernel completes.
  MultiGpuResult run(const MultiGpuWorkload& workload);

  std::uint32_t num_gpus() const noexcept {
    return static_cast<std::uint32_t>(gpus_.size());
  }
  UvmDriver& driver() noexcept { return driver_; }
  const UvmDriver& driver() const noexcept { return driver_; }
  GpuEngine& gpu(std::uint32_t g) { return *gpus_.at(g); }
  const SystemConfig& config() const noexcept { return config_; }

  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  const EventEngine::Stats& engine_stats() const noexcept {
    return engine_stats_;
  }

 private:
  /// GPU g's page-table view of the shared VA space: classify_for(g).
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

  bool gpu_finished(const GpuEngine& g) const {
    return g.all_done() && g.fault_buffer().empty();
  }

  SystemConfig config_;
  Tracer tracer_;          // must precede driver_/gpus_ (they hold pointers)
  MetricsRegistry metrics_;
  std::unique_ptr<AccessCounterUnit> counters_;  // shared unit; may be null
  UvmDriver driver_;
  std::vector<std::unique_ptr<GpuEngine>> gpus_;
  std::vector<GpuView> views_;
  EventEngine::Stats engine_stats_;
};

}  // namespace uvmsim
