#include "uvm/fault_servicer.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "uvm/lpt_schedule.hpp"

namespace uvmsim {

FaultServicer::FaultServicer(const DriverConfig& config, VaSpace& space,
                             const Topology& topo, GpuMemCtxs& gpus,
                             DmaMapper& dma, CopyEngine& copy,
                             std::uint32_t num_sms, FaultInjector* injector,
                             ThrashingDetector* thrash, Tracer* tracer)
    : config_(config),
      space_(space),
      topo_(topo),
      gpus_(gpus),
      dma_(dma),
      copy_(copy),
      num_sms_(num_sms),
      injector_(injector),
      thrash_(thrash),
      tracer_(tracer),
      deduper_(config.batch_size) {
  block_keys_.reserve(config.batch_size);
  by_block_.reserve(config.batch_size);
}

bool FaultServicer::attempt_with_retries(RetrySite site, BatchRecord& record) {
  if (!injector_ || !injector_->active()) return true;
  auto& c = record.counters;
  for (std::uint32_t failures = 0; failures < config_.retry.max_attempts;
       ++failures) {
    const bool failed = site == RetrySite::kTransfer
                            ? injector_->transfer_error()
                            : injector_->dma_map_error();
    if (!failed) return true;
    if (site == RetrySite::kTransfer) {
      ++c.transfer_errors;
    } else {
      ++c.dma_map_errors;
    }
    if (failures + 1 < config_.retry.max_attempts) {
      const SimTime t0 = record.start_ns + record.phases.sum();
      // Saturating accumulation: a pathological cap × attempt budget must
      // clamp instead of wrapping the phase timer (see RetryPolicy).
      record.phases.backoff_ns =
          sat_add(record.phases.backoff_ns, config_.retry.backoff_ns(failures));
      if (detailed_trace(config_, tracer_)) {
        tracer_->span(tracks::kDriver, "backoff", t0,
                      record.start_ns + record.phases.sum(),
                      {{"site", site == RetrySite::kTransfer ? 0u : 1u},
                       {"failures", failures + 1}});
      }
      if (site == RetrySite::kTransfer) {
        ++c.transfer_retries;
      } else {
        ++c.dma_map_retries;
      }
    }
  }
  return false;  // retry budget exhausted
}

void FaultServicer::evict_one(std::uint32_t gpu, VaBlockId protect,
                              BatchRecord& record, EvictFor path) {
  const bool fault_path = path == EvictFor::kFault;
  SimTime& phase =
      fault_path ? record.phases.eviction_ns : record.phases.counter_ns;
  const SimTime evict_t0 = record.start_ns + record.phases.sum();
  phase += config_.evict_fail_alloc_ns;

  Evictor& evictor = gpus_[gpu].evictor;
  const bool shields = thrash_ && thrash_->enabled();
  const SimTime now = record.start_ns + record.phases.sum();
  const auto victim =
      shields ? evictor.pick_victim(protect,
                                    [&](VaBlockId b) {
                                      return !thrash_->is_shielded(b, now);
                                    })
              : evictor.pick_victim(protect);
  if (!victim) {
    throw std::runtime_error(
        "uvmsim: GPU memory exhausted with no evictable VABlock");
  }

  VaBlockState& v = space_.block(*victim);
  const std::uint32_t resident = v.gpu_resident_count();
  if (fault_path && resident > 0) {
    // Writeback: the whole block's resident pages return to host frames
    // (without CPU remapping — lazy remap on CPU access, §5.1). A
    // writeback may hit transient transfer errors too, but it can never
    // be abandoned (that would lose the only valid copy): after the retry
    // budget the final attempt is forced through — resetting the channel
    // first when exhaustion revealed a permanent failure (tier 3).
    if (!attempt_with_retries(RetrySite::kTransfer, record) && recovery_ &&
        recovery_->enabled() && injector_ &&
        injector_->ce_permanent_failure()) {
      recovery_->channel_reset(record);
    }
  }
  release_to_host(gpu, *victim, v, record, phase);
  if (thrash_) {
    thrash_->record_eviction(*victim, record.start_ns + record.phases.sum());
  }

  phase += config_.evict_restart_ns;
  if (fault_path) {
    ++record.counters.evictions;
    ++total_evictions_;
  } else {
    ++record.counters.ctr_evictions;
    ++total_ctr_evictions_;
  }
  if (detailed_trace(config_, tracer_)) {
    tracer_->span(fault_path ? tracks::kDriver : tracks::kCounters,
                  "evict", evict_t0, record.start_ns + record.phases.sum(),
                  {{"victim", *victim}, {"pages_written_back", resident}});
  }
  record.evicted_blocks.push_back(*victim);
}

void FaultServicer::release_to_host(std::uint32_t gpu, VaBlockId id,
                                    VaBlockState& block, BatchRecord& record,
                                    SimTime& phase) {
  const auto xfer =
      copy_.copy_range(block.gpu_resident_count(), gpu_node(gpu), kHostNode);
  phase += xfer.time_ns;
  record.counters.bytes_d2h += xfer.bytes;
  const auto chunk = block.chunk();
  block.evict_to_host();  // also drops the block's chunk reference
  if (chunk) gpus_[gpu].memory.free_chunk(*chunk);
  gpus_[gpu].evictor.remove(id);
}

GpuMemory::ChunkId FaultServicer::alloc_chunk(std::uint32_t gpu,
                                              VaBlockId protect,
                                              BatchRecord& record,
                                              EvictFor path) {
  for (;;) {
    if (const auto chunk = gpus_[gpu].memory.alloc_chunk()) return *chunk;
    evict_one(gpu, protect, record, path);
  }
}

bool FaultServicer::ensure_chunk(std::uint32_t gpu, VaBlockId id,
                                 VaBlockState& block, BatchRecord& record,
                                 std::uint32_t target_pages) {
  if (block.has_chunk()) return false;
  // Local HBM is full. kPeerFirst: before paying an eviction, a SPARSE
  // batch places the block in the cheapest NVLink-reachable peer with a
  // free chunk — the faulting GPU gets a remote mapping into it after
  // the copy lands. Dense batches stay local: bulk data behind remote
  // PTEs would pay a fabric crossing on every access.
  if (gpus_[gpu].memory.full() &&
      config_.multi_gpu.placement == PlacementPolicy::kPeerFirst &&
      target_pages < config_.multi_gpu.peer_migrate_threshold) {
    for (const std::uint32_t p : topo_.peers_by_cost(gpu)) {
      if (!topo_.nvlink_path(gpu, p)) continue;
      if (const auto chunk = gpus_[p].memory.alloc_chunk()) {
        block.set_chunk(*chunk);
        block.set_owner_gpu(p);
        block.add_peer_map(gpu);
        // Everything this block ever holds is remote for the faulting
        // GPU; sustained traffic promotes it home via the counters.
        block.add_peer_pages(VaBlockState::PageMask{}.set());
        ++record.counters.peer_placements;
        ++record.counters.peer_maps;
        // Remote PTEs for the faulting GPU over the fabric.
        record.phases.pagetable_ns += config_.per_page_pte_ns;
        return true;
      }
    }
  }
  block.set_chunk(alloc_chunk(gpu, id, record));
  block.set_owner_gpu(gpu);
  return true;
}

void FaultServicer::pin_block(VaBlockId id, VaBlockState& block, SimTime now,
                              BatchRecord& record) {
  const SimTime pin_t0 = record.start_ns + record.phases.sum();
  // Any pages still on the GPU move home first (chunk released so the pin
  // relieves memory pressure immediately). Charged like an eviction
  // writeback but not counted as one — the whole point of the pin is to
  // stop the eviction churn.
  if (block.has_chunk()) {
    release_to_host(block.owner_gpu(), id, block, record,
                    record.phases.eviction_ns);
  }
  thrash_->pin(id, now + config_.thrash.pin_lapse_ns);
  ++record.counters.thrash_pins;
  if (detailed_trace(config_, tracer_)) {
    tracer_->span(tracks::kDriver, "thrash_pin", pin_t0,
                  record.start_ns + record.phases.sum(), {{"block", id}});
  }
}

bool FaultServicer::service_peer_block(std::uint32_t gpu, VaBlockId id,
                                       VaBlockState& block,
                                       const VaBlockState::PageMask& faulted,
                                       BatchRecord& record) {
  const std::uint32_t faulted_pages =
      static_cast<std::uint32_t>(faulted.count());
  const bool all_faulted_resident = (faulted & ~block.gpu_resident()).none();
  const std::uint32_t owner = block.owner_gpu();
  const bool nvlink = topo_.nvlink_path(gpu, owner);
  if (config_.multi_gpu.placement == PlacementPolicy::kEvictHost) {
    // The no-P2P baseline: the owner's copy is evicted to sysmem and the
    // faulting GPU re-populates it over its own host link like any other
    // host-resident fault — the handoff pays two host hops plus the
    // refault, which is exactly what NVLink peer migration saves.
    release_to_host(owner, id, block, record, record.phases.eviction_ns);
    record.phases.eviction_ns += config_.evict_restart_ns;
    ++record.counters.evictions;
    ++total_evictions_;
    return false;
  }
  if (config_.multi_gpu.placement == PlacementPolicy::kPeerFirst && nvlink &&
      all_faulted_resident &&
      faulted_pages < config_.multi_gpu.peer_migrate_threshold) {
    // Remote map over NVLink: fabric PTEs for exactly the faulted pages,
    // no data movement. Unmapped pages of the block still fault, so a
    // dense accessor keeps building pressure toward the migrate branch;
    // sustained remote traffic feeds the access-counter promotion path.
    block.add_peer_map(gpu);
    block.add_peer_pages(faulted);
    record.phases.pagetable_ns += config_.per_page_pte_ns * faulted_pages;
    ++record.counters.peer_maps;
    gpus_[owner].evictor.touch(id);
    return true;
  }

  // Peer migrate: heavy fault pressure (or no NVLink path worth mapping
  // over) moves the block's resident pages owner -> gpu across the fabric
  // and ownership follows the faulting GPU. Non-resident target pages are
  // established by the normal service path afterwards.
  const VaBlockState::PageMask resident = block.gpu_resident();
  const auto old_chunk = block.chunk();
  const GpuMemory::ChunkId dst = alloc_chunk(gpu, id, record);
  const auto xfer =
      copy_.copy_pages(resident, gpu_node(owner), gpu_node(gpu));
  record.phases.transfer_ns += xfer.time_ns;
  record.counters.bytes_peer += xfer.bytes;
  record.counters.peer_pages_migrated +=
      static_cast<std::uint32_t>(resident.count());
  gpus_[owner].memory.free_chunk(*old_chunk);
  gpus_[owner].evictor.remove(id);
  block.set_chunk(dst);
  block.set_owner_gpu(gpu);
  block.clear_peer_maps();
  return false;
}

BatchRecord FaultServicer::service(const std::vector<FaultRecord>& raw,
                                   SimTime start, std::uint32_t batch_id) {
  BatchRecord record;
  record.id = batch_id;
  record.start_ns = start;

  // -- Fetch: read the records out of the GPU fault buffer ---------------
  record.counters.raw_faults = static_cast<std::uint32_t>(raw.size());
  record.phases.fetch_ns =
      config_.batch_fixed_ns + config_.per_fault_fetch_ns * raw.size();

  const bool parallel = config_.parallelism.active();
  record.faults_per_sm.assign(num_sms_, 0);
  for (const auto& f : raw) {
    if (f.sm < num_sms_) ++record.faults_per_sm[f.sm];
    switch (f.access) {
      case AccessType::kRead: ++record.counters.read_faults; break;
      case AccessType::kWrite: ++record.counters.write_faults; break;
      case AccessType::kPrefetch: ++record.counters.prefetch_faults; break;
    }
  }

  // -- Dedup / classify ----------------------------------------------------
  const DedupResult& dedup = deduper_.dedup(raw);
  record.phases.dedup_ns = config_.per_fault_dedup_ns * raw.size();
  record.counters.unique_faults =
      static_cast<std::uint32_t>(dedup.unique.size());
  record.counters.dup_same_utlb = dedup.dup_same_utlb;
  record.counters.dup_cross_utlb = dedup.dup_cross_utlb;

  // Fetch and dedup are the batch's serial prefix in every servicing mode,
  // so their spans are valid even when the per-block timeline is not.
  Tracer* const tracer = tracer_;
  if (tracer) {
    const SimTime fetch_end = start + record.phases.fetch_ns;
    tracer->span(tracks::kDriver, "fetch", start, fetch_end,
                 {{"raw_faults", raw.size()}});
    tracer->span(tracks::kDriver, "dedup", fetch_end,
                 fetch_end + record.phases.dedup_ns,
                 {{"unique", dedup.unique.size()},
                  {"dup_same_utlb", dedup.dup_same_utlb},
                  {"dup_cross_utlb", dedup.dup_cross_utlb}});
  }

  // -- Group by VABlock (the driver processes blocks independently) -------
  // Ascending block order, first arrival within a block: one integer key
  // per record, the block id above its arrival index, so the sort compares
  // keys without loading the records.
  block_keys_.clear();
  for (std::size_t i = 0; i < dedup.unique.size(); ++i) {
    block_keys_.push_back(va_block_of(dedup.unique[i].page) << 32 | i);
  }
  std::ranges::sort(block_keys_);
  by_block_.clear();
  for (const std::uint64_t key : block_keys_) {
    by_block_.push_back(&dedup.unique[key & 0xffffffffu]);
  }

  const TreePrefetcher prefetcher(config_.prefetch_threshold,
                                  config_.big_page_promotion);

  // Per-VABlock service costs double as the parallel model's work units.
  std::vector<SimTime> block_costs;
  if (parallel) block_costs.reserve(by_block_.size());
  // Block ids in work-unit order, for labeling per-VABlock worker spans.
  std::vector<VaBlockId> block_order;
  if (parallel && tracer) block_order.reserve(by_block_.size());

  const bool detailed = detailed_trace(config_, tracer_);

  for (std::size_t first = 0, last = 0; first < by_block_.size();
       first = last) {
    const VaBlockId block_id = va_block_of(by_block_[first]->page);
    while (last < by_block_.size() &&
           va_block_of(by_block_[last]->page) == block_id) {
      ++last;
    }
    const std::span<const FaultRecord* const> faults(by_block_.data() + first,
                                                     last - first);
    ++record.counters.vablocks_touched;
    VaBlockState& block = space_.block(block_id);
    const SimTime block_cost_start = record.phases.sum();
    record.phases.vablock_ns += config_.per_vablock_ns;
    record.vablock_faults.emplace_back(
        block_id, static_cast<std::uint16_t>(faults.size()));

    // Close out this block's accounting (shared by the early-exit paths
    // below and the normal path at the bottom of the loop).
    const auto finish_block = [&] {
      const SimTime block_cost = record.phases.sum() - block_cost_start;
      if (parallel) {
        block_costs.push_back(block_cost);
        if (tracer) block_order.push_back(block_id);
      }
      record.vablock_service_ns.emplace_back(block_id, block_cost);
      if (detailed) {
        tracer->span(tracks::kDriver, "vablock", start + block_cost_start,
                     start + block_cost_start + block_cost,
                     {{"block", block_id}, {"faults", faults.size()}});
      }
    };

    // Fatal double-bit ECC on the block's resident chunk (recovery tiers
    // 1+2): the block's faults are cancelled, its chunk retired, and its
    // pages remapped to host — no servicing this batch, and its replayed
    // accesses resolve remotely. Probed only with the ladder armed.
    if (recovery_ && recovery_->enabled() && injector_ && block.has_chunk() &&
        injector_->ecc_double_bit()) {
      recovery_->fatal_chunk_ecc(block_id, block,
                                 static_cast<std::uint32_t>(faults.size()),
                                 record);
      finish_block();
      continue;
    }

    // Thrashing check before any migration work: a block ping-ponging
    // between eviction and re-fault gets degraded gracefully instead of
    // another migration round-trip (§5.1; nvidia-uvm perf_thrashing).
    if (thrash_ && thrash_->enabled()) {
      const SimTime now = start + record.phases.sum();
      if (thrash_->record_fault(block_id, now)) {
        switch (config_.thrash.mitigation) {
          case ThrashMitigation::kPin:
            // Pin + remote-map: needs the block's DMA mappings in place,
            // then GPU accesses resolve over the interconnect.
            if (!block.dma_mapped()) {
              if (!attempt_with_retries(RetrySite::kDmaMap, record)) {
                ++record.counters.service_aborts;
                finish_block();
                continue;
              }
              const SimTime map_t0 = start + record.phases.sum();
              const auto dmar =
                  dma_.map_range(first_page_of(block_id), kPagesPerVaBlock);
              record.phases.dma_map_ns += dmar.cost_ns;
              record.counters.dma_pages_mapped += dmar.pages_mapped;
              record.counters.radix_nodes_allocated +=
                  dmar.radix_nodes_allocated;
              record.counters.radix_grew |= dmar.radix_grew;
              block.set_dma_mapped();
              if (detailed) {
                tracer->span(tracks::kDriver, "dma_map", map_t0,
                             start + record.phases.sum(),
                             {{"block", block_id},
                              {"pages", dmar.pages_mapped},
                              {"radix_nodes", dmar.radix_nodes_allocated}});
              }
            }
            pin_block(block_id, block, now, record);
            finish_block();
            continue;  // no migration for pinned blocks
          case ThrashMitigation::kThrottle:
            // Widen the service window and shield the block from the
            // evictor so the working set turns over more slowly.
            record.phases.throttle_ns += config_.thrash.throttle_delay_ns;
            thrash_->shield(block_id, now + config_.thrash.pin_lapse_ns);
            ++record.counters.thrash_throttles;
            if (detailed) {
              tracer->span(tracks::kDriver, "thrash_throttle", now,
                           start + record.phases.sum(), {{"block", block_id}});
            }
            break;  // then service normally
          case ThrashMitigation::kNone:
            break;  // detection only
        }
      }
    }

    VaBlockState::PageMask faulted;
    for (const FaultRecord* f : faults) {
      faulted.set(page_index_in_block(f->page));
    }

    // Placement: which GPU faulted this block (dedup keeps first
    // arrival, so the choice is deterministic), and — when its chunk
    // lives in a peer's HBM — remote-map vs. peer-migrate.
    const std::uint32_t serving_gpu = faults.front()->gpu;
    block.set_last_gpu(serving_gpu);
    if (block.has_chunk() && block.owner_gpu() != serving_gpu &&
        service_peer_block(serving_gpu, block_id, block, faulted, record)) {
      finish_block();
      continue;
    }

    // Reactive density prefetch, VABlock-scoped (§5.2).
    VaBlockState::PageMask prefetch_mask;
    if (config_.prefetch_enabled) {
      const SimTime prefetch_t0 = start + record.phases.sum();
      prefetch_mask = prefetcher.compute(block.gpu_resident(), faulted);
      record.phases.prefetch_ns +=
          config_.prefetch_compute_per_fault_ns * faults.size();
      if (detailed) {
        tracer->span(tracks::kDriver, "prefetch", prefetch_t0,
                     start + record.phases.sum(),
                     {{"block", block_id},
                      {"pages", (prefetch_mask & ~faulted).count()}});
      }
    }
    const VaBlockState::PageMask target =
        (faulted | prefetch_mask) & ~block.gpu_resident();

    // First GPU touch: compulsory DMA mapping of every page in the block
    // plus reverse-map radix inserts (§5.2, Fig 14). A transiently failing
    // map is retried with backoff; on exhaustion the block's service is
    // abandoned for this batch (its faults reissue after the replay).
    if (!block.dma_mapped()) {
      if (!attempt_with_retries(RetrySite::kDmaMap, record)) {
        ++record.counters.service_aborts;
        finish_block();
        continue;
      }
      const SimTime map_t0 = start + record.phases.sum();
      const auto dma = dma_.map_range(first_page_of(block_id),
                                      kPagesPerVaBlock);
      record.phases.dma_map_ns += dma.cost_ns;
      record.counters.dma_pages_mapped += dma.pages_mapped;
      record.counters.radix_nodes_allocated += dma.radix_nodes_allocated;
      record.counters.radix_grew |= dma.radix_grew;
      block.set_dma_mapped();
      if (detailed) {
        tracer->span(tracks::kDriver, "dma_map", map_t0,
                     start + record.phases.sum(),
                     {{"block", block_id},
                      {"pages", dma.pages_mapped},
                      {"radix_nodes", dma.radix_nodes_allocated}});
      }
    }

    // GPU backing; eviction may run inside.
    const bool fresh_chunk =
        ensure_chunk(serving_gpu, block_id, block, record,
                     static_cast<std::uint32_t>(target.count()));

    if (!block.ever_on_gpu()) {
      ++record.counters.first_touch_vablocks;
      record.first_touch_blocks.push_back(block_id);
      block.set_ever_on_gpu();
    }

    // unmap_mapping_range(): every CPU-mapped page of the block comes off
    // the host page table on the fault path (§4.4).
    if (block.cpu_mapped_count() > 0) {
      const std::uint32_t mapped = block.cpu_mapped_count();
      const CpuThreadMask sharers = block.cpu_sharers();
      const auto unmap_parts = config_.unmap.breakdown(mapped, sharers);
      const SimTime unmap_t0 = start + record.phases.sum();
      record.phases.unmap_ns += unmap_parts.total();
      ++record.counters.unmap_calls;
      record.counters.pages_unmapped += space_.unmap_block_cpu(block_id);
      if (detailed) {
        tracer->span(tracks::kDriver, "unmap", unmap_t0,
                     start + record.phases.sum(),
                     {{"block", block_id},
                      {"pages", mapped},
                      {"sharers", sharer_count(sharers)}});
        if (unmap_parts.shootdown_ns > 0) {
          // The cross-core IPI storm is the tail of the unmap call.
          tracer->span(tracks::kDriver, "tlb_shootdown",
                       unmap_t0 + unmap_parts.base_ns + unmap_parts.pte_ns,
                       unmap_t0 + unmap_parts.total(),
                       {{"extra_cores", sharer_count(sharers) - 1}});
        }
      }
    }

    // Partition target pages: host-backed pages migrate; the rest are
    // zero-fill populated on the GPU. A fresh chunk populates everything
    // first (eviction-restart semantics, §5.1).
    VaBlockState::PageMask migrate = target & block.host_data();
    std::uint32_t populate =
        static_cast<std::uint32_t>(target.count() - migrate.count());
    // Fatal poisoned page (recovery tiers 1+2): the copy engine discovers
    // poison on the migration set's first page; that page is retired to
    // its host frame and dropped from the transfer, the rest of the block
    // services normally.
    if (recovery_ && recovery_->enabled() && injector_ && migrate.any() &&
        injector_->poisoned_page()) {
      const std::uint32_t poisoned = migrate.first_set();
      recovery_->fatal_poisoned_page(block_id, block, poisoned, record);
      migrate.reset(poisoned);
    }
    if (fresh_chunk) {
      populate += static_cast<std::uint32_t>(migrate.count());
    }
    const SimTime populate_t0 = start + record.phases.sum();
    record.phases.populate_ns += config_.per_page_populate_ns * populate;
    record.counters.pages_populated += populate;
    if (detailed && populate > 0) {
      tracer->span(tracks::kDriver, "populate", populate_t0,
                   start + record.phases.sum(),
                   {{"block", block_id}, {"pages", populate}});
    }

    // Copy-engine migration, retried on transient transfer errors. If the
    // budget runs out the host-backed pages stay home (they re-fault after
    // the replay); zero-filled pages are established regardless.
    bool migrate_ok = true;
    if (migrate.any()) {
      bool transfer_ready = attempt_with_retries(RetrySite::kTransfer, record);
      if (!transfer_ready && recovery_ && recovery_->enabled() && injector_ &&
          injector_->ce_permanent_failure()) {
        // Retry exhaustion revealed a permanently failed channel, not bad
        // data: reset it (tier 3) and replay the copy on the fresh channel.
        recovery_->channel_reset(record);
        transfer_ready = true;
      }
      if (transfer_ready) {
        const SimTime copy_t0 = start + record.phases.sum();
        const auto xfer = copy_.copy_pages(migrate, kHostNode,
                                           gpu_node(block.owner_gpu()));
        record.phases.transfer_ns += xfer.time_ns;
        record.counters.bytes_h2d += xfer.bytes;
        record.counters.pages_migrated +=
            static_cast<std::uint32_t>(migrate.count());
        if (detailed) {
          tracer->span(tracks::kDriver, "copy", copy_t0,
                       start + record.phases.sum(),
                       {{"block", block_id},
                        {"pages", migrate.count()},
                        {"dma_ops", xfer.dma_ops},
                        {"bytes", xfer.bytes}});
        }
      } else {
        migrate_ok = false;
        ++record.counters.service_aborts;
      }
    }

    // A retired page is permanently banned from GPU residency. A page
    // whose migration was abandoned still has its only valid copy in the
    // host frame — it must not be mapped GPU-resident.
    VaBlockState::PageMask resident_now = target & ~block.retired();
    if (!migrate_ok) resident_now &= ~block.host_data();
    block.set_gpu_resident(resident_now);
    const auto established = static_cast<std::uint32_t>(resident_now.count());
    const SimTime pte_t0 = start + record.phases.sum();
    record.phases.pagetable_ns += config_.per_page_pte_ns * established;
    record.counters.pages_prefetched += static_cast<std::uint32_t>(
        (prefetch_mask & ~faulted).count());
    if (detailed && established > 0) {
      tracer->span(tracks::kDriver, "pagetable", pte_t0,
                   start + record.phases.sum(),
                   {{"block", block_id}, {"pages", established}});
    }

    gpus_[block.owner_gpu()].evictor.touch(block_id);
    finish_block();
  }

  // -- Replay ---------------------------------------------------------------
  record.phases.replay_ns = config_.replay_ns;
  SimTime critical_path = record.phases.sum();
  if (config_.async_host_ops) {
    // §6 extension: host-OS operations run off the fault path; they still
    // consume host time (accounted by the driver) but do not delay the
    // replay.
    critical_path -= record.phases.unmap_ns + record.phases.dma_map_ns;
  }
  if (parallel) {
    // §6 live model: the batch's independent work units run on k simulated
    // driver threads; everything outside them (fetch, dedup, replay, the
    // per-SM rounding remainder) stays serial. schedule_batch is shared
    // with the analysis::parallelism what-if estimator, so live timings
    // and post-hoc estimates on the same batch agree exactly.
    std::vector<SimTime> jobs;
    if (config_.parallelism.policy == ServicingPolicy::kPerVaBlock) {
      jobs = std::move(block_costs);
    } else {
      SimTime parallel_work = 0;
      for (const SimTime cost : block_costs) parallel_work += cost;
      jobs = split_by_share(parallel_work, record.faults_per_sm);
    }
    const BatchSchedule sched =
        schedule_batch(critical_path, jobs, config_.parallelism.workers);
    if (tracer && !jobs.empty()) {
      // Reconstruct the worker Gantt chart from the same LPT assignment
      // that sets the makespan: jobs run back to back on their worker,
      // after the serial pre-replay prefix.
      const LptAssignment assign =
          lpt_assign(jobs, config_.parallelism.workers);
      const SimTime serial_before =
          sched.serial_ns > record.phases.replay_ns
              ? sched.serial_ns - record.phases.replay_ns
              : 0;
      const bool per_block =
          config_.parallelism.policy == ServicingPolicy::kPerVaBlock;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const SimTime job_begin = start + serial_before + assign.start_of[j];
        tracer->span(
            tracks::kWorkerBase + assign.worker_of[j],
            per_block ? "vablock" : "sm", job_begin, job_begin + jobs[j],
            per_block ? TraceArgs{{"block", block_order[j]}}
                      : TraceArgs{{"job", j}});
      }
    }
    critical_path = sched.duration_ns();
  }
  record.end_ns = start + critical_path;
  if (tracer) {
    tracer->span(tracks::kDriver, "replay",
                 record.end_ns - record.phases.replay_ns, record.end_ns);
    tracer->span(tracks::kDriver, "batch", start, record.end_ns,
                 {{"batch", batch_id},
                  {"raw_faults", record.counters.raw_faults},
                  {"unique_faults", record.counters.unique_faults},
                  {"vablocks", record.counters.vablocks_touched}});
  }
  return record;
}

}  // namespace uvmsim
