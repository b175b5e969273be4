// Fatal-fault containment: the nvidia-uvm-style recovery ladder.
//
// PR 2's robustness layer treats every failure as transient — retry with
// backoff, abandon to the replay path on exhaustion. A production UVM
// driver also survives *fatal* faults, escalating through four tiers:
//
//   tier 1 — targeted fault cancellation: the offending µTLB entries'
//            faults are cancelled instead of serviced (the replayable-
//            fault cancel method), so one bad access cannot wedge the
//            whole batch;
//   tier 2 — page retirement: a double-bit ECC error retires the backing
//            chunk (gpu/gpu_memory blacklist) and a poisoned page retires
//            just itself; retired pages are remapped to their host frames
//            via the existing remote-map path and resolve over the
//            interconnect forever after. A retired-page pool bounds how
//            much blacklisting the board absorbs before escalation;
//   tier 3 — copy-engine/channel reset: a permanently failed channel is
//            reset (in-flight transfers aborted, reset latency charged)
//            and the affected copy replayed on the fresh channel;
//   tier 4 — full GPU reset: VA-space teardown (resident pages written
//            back, chunks freed) plus a deterministic driver-state
//            rebuild; kernels re-fault their working set afterwards.
//            Requested automatically when the retired-page pool
//            overflows, and by the System watchdog when the fault buffer
//            wedges (batch-stuck -> channel reset -> GPU reset).
//
// Determinism contract: with RecoveryConfig::enabled false no fatal probe
// is ever drawn and no recovery cost charged — byte-identical to the
// pre-recovery driver. With it enabled, every decision derives from the
// injector's per-site streams, so identical (config, seed) runs produce
// bit-identical recovery traces.
//
// Model choice: retirement and reset are *driver-coordinated* — resident
// data is salvaged to host frames before the chunk/VA teardown, so the
// no-orphaned-pages invariant (populated ⊆ gpu_resident ∪ host_data)
// holds through every rung of the ladder. Host-side DMA mappings survive
// a GPU reset (the radix tree is host state); GPU-side page tables do
// not, which is what the per-block teardown models.
//
// Every chunk goes back to the GPU that owns its block: salvage copies run
// over that GPU's host link, and the chunk is freed (or blacklisted) in
// that GPU's pool and dropped from that GPU's eviction order.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "hostos/dma.hpp"
#include "interconnect/copy_engine.hpp"
#include "obs/trace.hpp"
#include "uvm/batch.hpp"
#include "uvm/driver_config.hpp"
#include "uvm/gpu_ctx.hpp"
#include "uvm/va_space.hpp"

namespace uvmsim {

class RecoveryManager {
 public:
  /// `gpus` holds one memory context per GPU; not owned.
  RecoveryManager(const DriverConfig& config, VaSpace& space,
                  GpuMemCtxs& gpus, DmaMapper& dma, CopyEngine& copy,
                  Tracer* tracer);

  bool enabled() const noexcept { return config_.recovery.enabled; }

  /// Tiers 1+2: double-bit ECC on the block's resident chunk. Cancels the
  /// block's `faults` pending faults, salvages resident data home,
  /// blacklists the chunk in its owner GPU's pool (capacity permitting —
  /// with one usable chunk left the suspect chunk is returned to the pool
  /// instead, so the board keeps serving), retires every page of the
  /// block to the host remote-map path, and charges it all into
  /// `record.phases.recovery_ns`.
  void fatal_chunk_ecc(VaBlockId id, VaBlockState& block,
                       std::uint32_t faults, BatchRecord& record);

  /// Tiers 1+2: one poisoned page (block-relative index `page`)
  /// discovered during migration. The page is retired to its host frame;
  /// the rest of the block keeps servicing normally.
  void fatal_poisoned_page(VaBlockId id, VaBlockState& block,
                           std::uint32_t page, BatchRecord& record);

  /// Tier 3: reset the copy-engine channel. Charges the reset latency
  /// into recovery_ns; the caller replays the aborted work afterwards.
  void channel_reset(BatchRecord& record);

  /// Tier 4: full GPU reset. Tears down every block's GPU residency on
  /// every GPU (salvage writeback, chunks freed, evictors emptied),
  /// charges the teardown plus RecoveryConfig::gpu_reset_ns, clears the
  /// soft retired-page pool accounting (the physical blacklist persists),
  /// and extends `record.end_ns` by the total charged. The caller must
  /// also reset the GPU engine side (GpuEngine::full_reset) so kernels
  /// re-fault.
  void full_gpu_reset(BatchRecord& record);

  /// Pool-overflow escalation latch: set when retirements exceed
  /// RecoveryConfig::retired_page_pool; cleared by the read.
  bool take_gpu_reset_request() noexcept {
    const bool r = gpu_reset_requested_;
    gpu_reset_requested_ = false;
    return r;
  }

  // ---- Lifetime accounting (across all batches) -------------------------
  std::uint64_t faults_cancelled() const noexcept { return faults_cancelled_; }
  std::uint64_t pages_retired() const noexcept { return pages_retired_; }
  std::uint64_t chunks_retired() const noexcept { return chunks_retired_; }
  std::uint64_t channel_resets() const noexcept { return channel_resets_; }
  std::uint64_t gpu_resets() const noexcept { return gpu_resets_; }

 private:
  /// Account `pages` against the retired-page pool and latch a GPU-reset
  /// request when it overflows.
  void note_pool_use(std::uint32_t pages);

  /// Copy `block`'s resident pages home from its owner GPU, evict it to
  /// host and drop it from the owner's eviction order. Returns the owner's
  /// context, whose pool the caller returns the block's chunk to.
  GpuMemCtx& salvage(VaBlockId id, VaBlockState& block, BatchRecord& record);

  const DriverConfig& config_;
  VaSpace& space_;
  GpuMemCtxs& gpus_;
  DmaMapper& dma_;
  CopyEngine& copy_;
  Tracer* tracer_;  // null = no recording

  std::uint64_t faults_cancelled_ = 0;
  std::uint64_t pages_retired_ = 0;
  std::uint64_t chunks_retired_ = 0;
  std::uint64_t channel_resets_ = 0;
  std::uint64_t gpu_resets_ = 0;
  std::uint32_t retired_pool_used_ = 0;
  bool gpu_reset_requested_ = false;
};

}  // namespace uvmsim
