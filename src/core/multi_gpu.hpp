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
// MultiGpuSystem is the N-GPU preset over core/node.hpp: one driver with
// N GPU contexts (one fault injector, one shared access-counter unit, one
// tracer) and N GPU sources, GPU g seeded config.seed + 0x9E37 * (g + 1).
// Each source reads residency through its GPU's page-table view
// (UvmDriver::classify_for). The worker is granted FCFS: it wakes for the
// oldest pending arrival, ties going to the lowest GPU index, so identical
// runs are byte-identical. Faults are stamped with their source GPU as they
// drain, so the servicer knows which page tables to update and where to
// place the pages.
#pragma once

#include <cstdint>
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
  /// Fleet-wide aggregate over this run: the shared driver's batch log
  /// (whose peer_* counters are the peer-placement ledger) plus totals
  /// summed over every GPU engine. kernel_time_ns is the makespan.
  RunResult aggregate;
  std::vector<SimTime> per_gpu_kernel_ns;  // launch-to-done per GPU
  SimTime makespan_ns = 0;
  std::uint64_t batches_serviced = 0;
  std::vector<LinkReport> links;  // this run's traffic per link
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
    return static_cast<std::uint32_t>(node_.num_sources());
  }
  UvmDriver& driver() noexcept { return node_.driver(0); }
  const UvmDriver& driver() const noexcept { return node_.driver(0); }
  GpuEngine& gpu(std::uint32_t g) { return node_.gpu(g); }
  const SystemConfig& config() const noexcept { return node_.config(); }

  /// The shared driver's trace, with every GPU's windows on it; empty
  /// unless config.obs.trace was set.
  const Tracer& tracer() const noexcept { return node_.tracer(0); }
  /// Every run so far, read from the books (Node::metrics).
  MetricsRegistry metrics() const { return node_.metrics(); }
  /// Event-engine stats; they accumulate across runs.
  const EventEngine::Stats& engine_stats() const noexcept {
    return node_.engine().stats();
  }

 private:
  Node node_;
};

}  // namespace uvmsim
