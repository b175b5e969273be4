// The fault-servicing pipeline: turns one drained fault batch into page
// migrations, following the path the paper instruments (Sections 4–5):
//
//   fetch -> dedup/classify -> group by VABlock -> per VABlock:
//     [thrashing check: pin+remote-map or throttle instead of migrating]
//     -> first-touch DMA mapping of the whole block (+ radix inserts)
//     [evict victim(s) if GPU memory is full]
//     -> unmap CPU-resident pages (unmap_mapping_range)
//     -> density prefetch (VABlock-scoped)
//     -> zero-fill population of pages with no backing data
//     -> copy-engine migration of host-backed pages
//     -> GPU page-table update
//   -> fault replay.
//
// Each phase's simulated cost is accumulated into BatchPhaseTimes; all
// event counts into BatchCounters — the same metadata the authors' modified
// driver logs per batch.
//
// When DriverConfig::parallelism selects per-VABlock or per-SM servicing
// with k > 1 workers, the batch's independent work units are LPT-scheduled
// (uvm/lpt_schedule.hpp) and the serviced time becomes serial phases +
// makespan; state updates are unchanged, only timing differs (§6).
//
// Robustness layer: an optional FaultInjector makes copy-engine transfers
// and DMA maps fail transiently; failures are retried under
// DriverConfig::retry (exponential backoff, bounded attempts). When a
// retry budget is exhausted the block's service is abandoned for this
// batch — its faults re-surface through the µTLB reissue path after the
// replay, so no work is lost, only deferred. An optional ThrashingDetector
// replaces eviction ping-pong with pin+remote-map or throttling (§5.1).
//
// One path serves every GPU count. Each faulted block is serviced for the
// GPU whose fault arrived first; its chunk comes from that GPU's memory
// context (or, under kPeerFirst, a peer's), and a block already owned by
// a peer is remote-mapped or peer-migrated first. With one GPU the peer
// branches never fire and every copy runs over the single PCIe link.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fault_inject.hpp"
#include "common/types.hpp"
#include "gpu/fault.hpp"
#include "gpu/gpu_memory.hpp"
#include "hostos/dma.hpp"
#include "interconnect/copy_engine.hpp"
#include "interconnect/topology.hpp"
#include "obs/obs.hpp"
#include "uvm/batch.hpp"
#include "uvm/dedup.hpp"
#include "uvm/driver_config.hpp"
#include "uvm/eviction.hpp"
#include "uvm/gpu_ctx.hpp"
#include "uvm/prefetcher.hpp"
#include "uvm/recovery.hpp"
#include "uvm/thrashing.hpp"
#include "uvm/va_space.hpp"

namespace uvmsim {

class FaultServicer {
 public:
  /// `gpus` holds one memory context per GPU of `topo`; neither is owned.
  FaultServicer(const DriverConfig& config, VaSpace& space,
                const Topology& topo, GpuMemCtxs& gpus, DmaMapper& dma,
                CopyEngine& copy, std::uint32_t num_sms,
                FaultInjector* injector = nullptr,
                ThrashingDetector* thrash = nullptr, Obs obs = {});

  /// Service one batch starting at simulated time `start`. Updates all
  /// residency state and returns the complete batch record (end time =
  /// start + sum of phase costs).
  BatchRecord service(const std::vector<FaultRecord>& raw, SimTime start,
                      std::uint32_t batch_id);

  /// Attach the fatal-fault recovery ladder (uvm/recovery.hpp). With it
  /// attached and enabled, the servicer probes the injector's fatal
  /// classes on the service path: double-bit ECC per chunked-block
  /// service, poisoned pages per migration, and permanent channel failure
  /// on transfer-retry exhaustion. May be null (no fatal faults — the
  /// default, and byte-identical to the pre-recovery servicer).
  void set_recovery(RecoveryManager* recovery) noexcept {
    recovery_ = recovery;
  }

  /// Which servicer an eviction serves. Both pick a shield-aware victim,
  /// write it back, release its chunk and record it with the thrashing
  /// detector. A fault-path eviction charges eviction_ns and `evictions`
  /// on the driver track and retries its writeback under injection; a
  /// counter-path eviction charges counter_ns and `ctr_evictions` on the
  /// counters track and has no retry step.
  enum class EvictFor : std::uint8_t { kFault, kCounter };

  /// A chunk from `gpu`'s pool, evicting that GPU's victims (never
  /// `protect`) until one frees up.
  GpuMemory::ChunkId alloc_chunk(std::uint32_t gpu, VaBlockId protect,
                                 BatchRecord& record,
                                 EvictFor path = EvictFor::kFault);

  /// Evictions so far on the fault path and on the counter path.
  std::uint64_t total_evictions() const noexcept { return total_evictions_; }
  std::uint64_t total_counter_evictions() const noexcept {
    return total_ctr_evictions_;
  }

 private:
  /// Retryable hook sites on the fault path.
  enum class RetrySite : std::uint8_t { kTransfer, kDmaMap };

  /// Peer-owned block faulted by `gpu`: decide remote-map vs. migrate and
  /// apply it. Returns true when the faulted pages were remote-mapped
  /// (service complete for this batch — the caller finishes the block).
  bool service_peer_block(std::uint32_t gpu, VaBlockId id,
                          VaBlockState& block,
                          const VaBlockState::PageMask& faulted,
                          BatchRecord& record);

  /// Run the injector's schedule for one retryable operation: each failed
  /// attempt charges exponential backoff into `record`; returns false when
  /// DriverConfig::retry.max_attempts were exhausted (permanent failure
  /// for this batch). Always true when injection is off — zero draws, zero
  /// cost.
  bool attempt_with_retries(RetrySite site, BatchRecord& record);

  /// Make sure `block` has a GPU chunk, evicting victims as needed.
  /// Returns true if the chunk was allocated by this call (fresh chunk:
  /// population applies to every target page). `gpu` is the faulting GPU:
  /// the chunk lands there, or — kPeerFirst under local pressure with a
  /// sparse batch (`target_pages` below the migrate threshold) — in the
  /// cheapest NVLink peer with room. A dense batch always allocates
  /// locally: parking bulk data behind remote PTEs would tax every
  /// subsequent access with a fabric crossing.
  bool ensure_chunk(std::uint32_t gpu, VaBlockId id, VaBlockState& block,
                    BatchRecord& record, std::uint32_t target_pages);

  void evict_one(std::uint32_t gpu, VaBlockId protect, BatchRecord& record,
                 EvictFor path);

  /// Write `block`'s resident pages back from GPU `gpu` to host frames,
  /// return its chunk to that GPU's pool and drop it from the GPU's
  /// eviction order. The copy time is charged into `phase`.
  void release_to_host(std::uint32_t gpu, VaBlockId id, VaBlockState& block,
                       BatchRecord& record, SimTime& phase);

  /// kPin mitigation: write any resident pages back, release the chunk,
  /// and mark the block host-pinned; its accesses resolve remotely.
  void pin_block(VaBlockId id, VaBlockState& block, SimTime now,
                 BatchRecord& record);

  const DriverConfig& config_;
  VaSpace& space_;
  const Topology& topo_;
  GpuMemCtxs& gpus_;
  DmaMapper& dma_;
  CopyEngine& copy_;
  std::uint32_t num_sms_;
  FaultInjector* injector_;          // may be null (no injection)
  ThrashingDetector* thrash_;        // may be null (no detection)
  RecoveryManager* recovery_ = nullptr;  // may be null (no fatal faults)
  Obs obs_;                          // null members = no recording
  std::uint64_t total_evictions_ = 0;
  std::uint64_t total_ctr_evictions_ = 0;
  // Per-batch working storage, sized at construction for the configured
  // batch and reused, so servicing allocates only for a larger batch: the
  // dedup table and result, and the unique records grouped by VABlock.
  // Sizing it up front also places it on the heap before a run's large
  // buffers; allocated at the first batch instead, it raised the peak RSS
  // of 30 back-to-back gauss-seidel-4x simulations by 1.4 MB (4%).
  FaultDeduper deduper_;
  std::vector<const FaultRecord*> by_block_;
};

}  // namespace uvmsim
