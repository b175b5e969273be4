#include "uvm/recovery.hpp"

namespace uvmsim {

RecoveryManager::RecoveryManager(const DriverConfig& config, VaSpace& space,
                                 GpuMemCtxs& gpus, DmaMapper& dma,
                                 CopyEngine& copy, Tracer* tracer)
    : config_(config),
      space_(space),
      gpus_(gpus),
      dma_(dma),
      copy_(copy),
      tracer_(tracer) {}

GpuMemCtx& RecoveryManager::salvage(VaBlockId id, VaBlockState& block,
                                    BatchRecord& record) {
  const std::uint32_t owner = block.owner_gpu();  // evict_to_host resets it
  const auto xfer =
      copy_.copy_range(block.gpu_resident_count(), gpu_node(owner), kHostNode);
  record.phases.recovery_ns += xfer.time_ns;
  record.counters.bytes_d2h += xfer.bytes;
  block.evict_to_host();
  gpus_[owner].evictor.remove(id);
  return gpus_[owner];
}

void RecoveryManager::note_pool_use(std::uint32_t pages) {
  retired_pool_used_ += pages;
  if (retired_pool_used_ > config_.recovery.retired_page_pool) {
    gpu_reset_requested_ = true;
  }
}

void RecoveryManager::fatal_chunk_ecc(VaBlockId id, VaBlockState& block,
                                      std::uint32_t faults,
                                      BatchRecord& record) {
  const RecoveryConfig& rc = config_.recovery;
  const SimTime t0 = record.start_ns + record.phases.sum();
  BatchCounters& c = record.counters;

  // Tier 1: cancel the offending µTLB entries' faults. They are never
  // serviced — after retirement the pages classify as remote-mapped, so
  // the replayed accesses resolve over the interconnect instead.
  record.phases.recovery_ns += rc.cancel_per_fault_ns * faults;
  c.faults_cancelled += faults;
  faults_cancelled_ += faults;

  // Salvage writeback: a double-bit error poisons the chunk as backing
  // store going forward, but the driver still copies the resident pages'
  // last-written data home before retiring it (driver-coordinated
  // retirement — no defined contents are orphaned).
  const auto chunk = block.chunk();
  GpuMemory& memory = salvage(id, block, record).memory;

  // Tier 2: blacklist the chunk and retire every page of the block to
  // the host remote-map path. Capacity floor: with one usable chunk left
  // blacklisting would brick the board, so the suspect chunk returns to
  // the pool instead (the pages still leave it — remapped to host).
  bool blacklisted = false;
  if (chunk) {
    if (memory.total_chunks() > 1) blacklisted = memory.retire_chunk(*chunk);
    if (!blacklisted) memory.free_chunk(*chunk);
  }
  const std::uint32_t newly = block.retire_all_pages();
  space_.note_page_retired();
  record.phases.recovery_ns += rc.retire_page_ns * newly;
  c.pages_retired += newly;
  pages_retired_ += newly;
  if (blacklisted) {
    ++c.chunks_retired;
    ++chunks_retired_;
  }

  // The remote path needs the block's DMA mappings; every chunked block
  // has them already (first touch maps before the chunk), but keep the
  // invariant explicit for future callers.
  if (!block.dma_mapped()) {
    const auto dmar = dma_.map_range(first_page_of(id), kPagesPerVaBlock);
    record.phases.dma_map_ns += dmar.cost_ns;
    c.dma_pages_mapped += dmar.pages_mapped;
    c.radix_nodes_allocated += dmar.radix_nodes_allocated;
    c.radix_grew |= dmar.radix_grew;
    block.set_dma_mapped();
  }
  note_pool_use(newly);

  if (detailed_trace(config_, tracer_)) {
    tracer_->span(tracks::kRecovery, "ecc_retire", t0,
                  record.start_ns + record.phases.sum(),
                  {{"block", id},
                   {"faults_cancelled", faults},
                   {"pages_retired", newly},
                   {"chunk_blacklisted", blacklisted ? 1u : 0u}});
  }
}

void RecoveryManager::fatal_poisoned_page(VaBlockId id, VaBlockState& block,
                                          std::uint32_t page,
                                          BatchRecord& record) {
  const RecoveryConfig& rc = config_.recovery;
  const SimTime t0 = record.start_ns + record.phases.sum();

  // Tier 1 for the one fault, tier 2 for the one page: it keeps its host
  // frame as the authoritative copy and is banned from GPU residency.
  record.phases.recovery_ns += rc.cancel_per_fault_ns + rc.retire_page_ns;
  block.retire_page(page);
  space_.note_page_retired();
  ++record.counters.faults_cancelled;
  ++record.counters.pages_retired;
  ++faults_cancelled_;
  ++pages_retired_;
  note_pool_use(1);

  if (detailed_trace(config_, tracer_)) {
    tracer_->span(tracks::kRecovery, "poison_retire", t0,
                  record.start_ns + record.phases.sum(),
                  {{"block", id}, {"page", page}});
  }
}

void RecoveryManager::channel_reset(BatchRecord& record) {
  const SimTime t0 = record.start_ns + record.phases.sum();
  record.phases.recovery_ns += config_.recovery.channel_reset_ns;
  ++record.counters.channel_resets;
  ++channel_resets_;
  if (detailed_trace(config_, tracer_)) {
    tracer_->span(tracks::kRecovery, "channel_reset", t0,
                  record.start_ns + record.phases.sum());
  }
}

void RecoveryManager::full_gpu_reset(BatchRecord& record) {
  const SimTime before = record.phases.sum();
  const SimTime t0 = record.start_ns + before;

  // VA-space teardown: every block loses its GPU residency and chunk.
  // Resident data is salvaged home first (driver-coordinated reset).
  // Host-side DMA mappings survive — the radix tree is host state.
  std::uint32_t blocks_torn_down = 0;
  for (VaBlockId id = 0; id < space_.block_count(); ++id) {
    VaBlockState& block = space_.block(id);
    if (!block.has_chunk()) continue;
    const auto chunk = block.chunk();
    salvage(id, block, record).memory.free_chunk(*chunk);
    ++blocks_torn_down;
  }
  record.phases.recovery_ns += config_.recovery.gpu_reset_ns;
  ++record.counters.gpu_resets;
  ++gpu_resets_;
  // The reset clears the soft pool accounting; the physical blacklist
  // (GpuMemory retired chunks, per-page retired masks) persists.
  retired_pool_used_ = 0;

  const SimTime charged = record.phases.sum() - before;
  record.end_ns += charged;
  if (detailed_trace(config_, tracer_)) {
    tracer_->span(tracks::kRecovery, "gpu_reset", t0, t0 + charged,
                  {{"blocks_torn_down", blocks_torn_down}});
  }
}

}  // namespace uvmsim
