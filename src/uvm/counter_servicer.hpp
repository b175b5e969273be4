// Access-counter servicing: the driver bottom half of the second GMMU
// notification channel (gpu/access_counters.hpp).
//
// Real nvidia-uvm services replayable faults first and then the access-
// counter notification batch; the simulator mirrors that ordering by
// running one servicing pass at the end of every fault batch
// (UvmDriver::handle_batch). A pass:
//
//   batch-fetch notifications arrived by the batch's end
//   -> per notification:
//        clear-on-service (re-arm the region's counter)
//        -> pick as migration candidate unless its allocation is
//           advised-host (explicit placement advice wins by default)
//        -> lift the block's thrashing pin (ThrashingDetector::unpin) —
//           the counters prove the region is hot enough to migrate back
//        -> ensure a GPU chunk on the promotion target (the last GPU
//           that faulted the block, or the cheapest peer with room),
//           evicting that GPU's victims when memory is full
//        -> copy-engine promotion of the region's host-backed pages,
//           zero-fill population of never-touched ones, PTE updates.
//           Retired pages stay host-pinned: they are never promoted.
//      A block already resident in a peer's HBM and remote-mapped by
//      another GPU migrates whole to that accessor instead.
//
// All costs charge into the batch's dedicated `counter_ns` phase and
// extend the batch record's end time, so the duration <= phase-sum
// invariant and the driver's busy-time accounting both hold. A pass with
// no arrived notifications is free: zero cost, zero events, zero state
// changes — counters enabled on a workload with no remote traffic stays
// bit-identical to counters disabled.
#pragma once

#include <cstdint>

#include "gpu/access_counters.hpp"
#include "gpu/gpu_memory.hpp"
#include "interconnect/copy_engine.hpp"
#include "interconnect/topology.hpp"
#include "obs/trace.hpp"
#include "uvm/batch.hpp"
#include "uvm/driver_config.hpp"
#include "uvm/fault_servicer.hpp"
#include "uvm/gpu_ctx.hpp"
#include "uvm/thrashing.hpp"
#include "uvm/va_space.hpp"

namespace uvmsim {

class CounterServicer {
 public:
  /// `gpus` holds one memory context per GPU of `topo`; neither is owned.
  /// Promotions that need room evict through `faults`' eviction step.
  CounterServicer(const DriverConfig& config, VaSpace& space,
                  const Topology& topo, GpuMemCtxs& gpus, CopyEngine& copy,
                  FaultServicer& faults, ThrashingDetector* thrash = nullptr,
                  Tracer* tracer = nullptr);

  /// Run one servicing pass against `unit` at the end of the fault batch
  /// `record` (whose end_ns must already be set): drain arrived
  /// notifications, promote candidates, and charge every cost into
  /// record.phases.counter_ns / record.end_ns plus the ctr_* counters.
  void service(AccessCounterUnit& unit, BatchRecord& record);

  std::uint64_t total_pages_promoted() const noexcept { return promoted_; }
  std::uint64_t total_unpins() const noexcept { return unpins_; }

 private:
  /// Promotion target for `block`: its last serving GPU when that HBM has
  /// room, else the cheapest peer with a free chunk, else the last
  /// serving GPU anyway (the eviction policy decides). One GPU: always 0.
  std::uint32_t pick_target_gpu(const VaBlockState& block);

  /// MIMC promotion of a peer-mapped resident block: the remote traffic is
  /// a peer GPU hammering the owner's HBM over the fabric, so promotion
  /// migrates the whole block (chunks are block-granular) to the accessor
  /// and drops the remote mappings.
  void promote_peer_block(VaBlockId id, VaBlockState& block,
                          BatchRecord& record);

  const DriverConfig& config_;
  VaSpace& space_;
  const Topology& topo_;
  GpuMemCtxs& gpus_;
  CopyEngine& copy_;
  FaultServicer& faults_;
  ThrashingDetector* thrash_;  // may be null (no detection)
  Tracer* tracer_;             // null = no recording
  std::uint64_t promoted_ = 0;
  std::uint64_t unpins_ = 0;
  std::uint64_t dropped_seen_ = 0;  // unit drop total at the last pass
};

}  // namespace uvmsim
