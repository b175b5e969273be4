#include "uvm/counter_servicer.hpp"

namespace uvmsim {

CounterServicer::CounterServicer(const DriverConfig& config, VaSpace& space,
                                 const Topology& topo, GpuMemCtxs& gpus,
                                 CopyEngine& copy, FaultServicer& faults,
                                 ThrashingDetector* thrash, Tracer* tracer)
    : config_(config),
      space_(space),
      topo_(topo),
      gpus_(gpus),
      copy_(copy),
      faults_(faults),
      thrash_(thrash),
      tracer_(tracer) {}

std::uint32_t CounterServicer::pick_target_gpu(const VaBlockState& block) {
  const std::uint32_t last = block.last_gpu();
  if (!gpus_[last].memory.full()) return last;
  // The hot GPU's HBM is full: the next-best placement is the cheapest
  // peer (by fabric path cost from the accessor) with a free chunk.
  for (const std::uint32_t p : topo_.peers_by_cost(last)) {
    if (!gpus_[p].memory.full()) return p;
  }
  return last;  // everything full; eviction policy decides below
}

void CounterServicer::promote_peer_block(VaBlockId id, VaBlockState& block,
                                         BatchRecord& record) {
  // Target: the last remote accessor if it still holds a peer mapping,
  // else the lowest-indexed mapped peer (deterministic either way).
  const std::uint32_t owner = block.owner_gpu();
  std::uint32_t target = owner;
  if (block.peer_mapped(block.last_gpu()) && block.last_gpu() != owner) {
    target = block.last_gpu();
  } else {
    for (std::uint32_t g = 0; g < config_.multi_gpu.num_gpus; ++g) {
      if (g != owner && block.peer_mapped(g)) {
        target = g;
        break;
      }
    }
  }
  if (target == owner) return;
  if (gpus_[target].memory.full() &&
      !config_.access_counters.evict_for_promotion) {
    return;  // opportunistic promotion only, same as the host path
  }

  const SimTime promote_t0 = record.start_ns + record.phases.sum();
  const VaBlockState::PageMask resident = block.gpu_resident();
  const auto pages = static_cast<std::uint32_t>(resident.count());
  const auto old_chunk = block.chunk();
  const GpuMemory::ChunkId dst = faults_.alloc_chunk(
      target, id, record, FaultServicer::EvictFor::kCounter);
  const auto xfer =
      copy_.copy_pages(resident, gpu_node(owner), gpu_node(target));
  record.phases.counter_ns += xfer.time_ns;
  record.counters.bytes_peer += xfer.bytes;
  record.counters.peer_pages_migrated += pages;
  record.counters.ctr_pages_promoted += pages;
  promoted_ += pages;
  if (old_chunk) gpus_[owner].memory.free_chunk(*old_chunk);
  gpus_[owner].evictor.remove(id);
  block.set_chunk(dst);
  block.set_owner_gpu(target);
  block.clear_peer_maps();
  record.phases.counter_ns += config_.per_page_pte_ns * pages;
  gpus_[target].evictor.touch(id);
  if (detailed_trace(config_, tracer_)) {
    tracer_->span(tracks::kCounters, "peer_promote", promote_t0,
                  record.start_ns + record.phases.sum(),
                  {{"block", id},
                   {"from", owner},
                   {"to", target},
                   {"pages", pages}});
  }
}

void CounterServicer::service(AccessCounterUnit& unit, BatchRecord& record) {
  const AccessCounterConfig& cfg = config_.access_counters;
  const SimTime pass_start = record.end_ns;

  // Notification-buffer overflow drops observed since the previous pass
  // (the GMMU drops on push; the driver only sees the count).
  const std::uint64_t dropped_now = unit.total_dropped_full();
  const std::uint32_t dropped_delta =
      static_cast<std::uint32_t>(dropped_now - dropped_seen_);
  dropped_seen_ = dropped_now;
  record.counters.ctr_dropped = dropped_delta;
  if (tracer_ && dropped_delta > 0) {
    tracer_->instant(tracks::kCounters, "counter_buffer_overflow",
                     pass_start, {{"dropped", dropped_delta}});
  }

  const auto batch = unit.drain_arrived(cfg.batch_size, pass_start);
  // Nothing arrived: the driver never wakes for this channel.
  if (batch.empty()) return;

  const SimTime phases_before = record.phases.sum();
  record.phases.counter_ns +=
      cfg.service_fixed_ns + cfg.per_notification_ns * batch.size();
  record.counters.ctr_notifications +=
      static_cast<std::uint32_t>(batch.size());

  for (const auto& n : batch) {
    // Clear-on-service: re-arm the region whether or not it migrates.
    unit.clear_region(n.base_page);
    record.phases.counter_ns += cfg.clear_ns;

    const VaBlockId block_id = va_block_of(n.base_page);
    if (!space_.has_block(block_id)) continue;
    if (!cfg.migrate_advised &&
        space_.advise_of(n.base_page) == MemAdvise::kPreferredLocationHost) {
      continue;  // explicit placement advice wins over the heuristic
    }
    VaBlockState& block = space_.block(block_id);

    // A hot peer-mapped block: the counters prove a peer GPU is paying
    // per-access fabric latency on every touch. Migrate the block to the
    // accessor instead of leaving the remote mapping in place forever.
    if (block.has_chunk() && block.peer_map_mask() != 0) {
      promote_peer_block(block_id, block, record);
      continue;
    }

    // Promotion target: the best-placed GPU.
    const std::uint32_t target = pick_target_gpu(block);

    // Opportunistic promotion: unless the config says otherwise, counter
    // migration never steals memory from the live working set. A region
    // whose block has no chunk while GPU memory is full stays remote —
    // re-armed by the clear above, pin intact — and retries on the next
    // threshold crossing.
    if (!block.has_chunk() && gpus_[target].memory.full() &&
        !cfg.evict_for_promotion) {
      continue;
    }

    // The counters prove the region is hot: lift the thrashing pin so the
    // block migrates instead of staying remote-mapped forever.
    if (thrash_ && thrash_->enabled()) {
      const SimTime now = record.start_ns + record.phases.sum();
      if (thrash_->unpin(block_id, now)) {
        ++record.counters.ctr_unpins;
        ++unpins_;
      }
    }

    // The region's target pages: not yet resident, and not retired — a
    // retired page is host-pinned for good, as on the fault path. A
    // region never spans blocks.
    VaBlockState::PageMask region;
    const std::uint32_t first = page_index_in_block(n.base_page);
    for (std::uint32_t i = first; i < first + n.region_pages; ++i) {
      region.set(i);
    }
    const VaBlockState::PageMask target_pages =
        region & ~block.gpu_resident() & ~block.retired();
    if (target_pages.none()) continue;  // re-faulted home since notifying
    const VaBlockState::PageMask migrate = target_pages & block.host_data();
    const auto migrated = static_cast<std::uint32_t>(migrate.count());
    const auto established = static_cast<std::uint32_t>(target_pages.count());

    const SimTime promote_t0 = record.start_ns + record.phases.sum();
    // GPU backing; eviction may run inside. A fresh chunk populates every
    // target page first (restart semantics, same as the fault path).
    const bool fresh_chunk = !block.has_chunk();
    if (fresh_chunk) {
      block.set_chunk(faults_.alloc_chunk(target, block_id, record,
                                          FaultServicer::EvictFor::kCounter));
      block.set_owner_gpu(target);
    }
    const std::uint32_t populate =
        fresh_chunk ? established : established - migrated;
    record.phases.counter_ns += config_.per_page_populate_ns * populate;
    record.counters.pages_populated += populate;

    const auto xfer =
        copy_.copy_pages(migrate, kHostNode, gpu_node(block.owner_gpu()));
    record.phases.counter_ns += xfer.time_ns;
    record.counters.bytes_h2d += xfer.bytes;
    record.counters.ctr_pages_promoted += migrated;
    promoted_ += migrated;

    block.set_gpu_resident(target_pages);
    record.phases.counter_ns += config_.per_page_pte_ns * established;
    gpus_[block.owner_gpu()].evictor.touch(block_id);
    if (detailed_trace(config_, tracer_)) {
      tracer_->span(tracks::kCounters, "promote", promote_t0,
                    record.start_ns + record.phases.sum(),
                    {{"block", block_id},
                     {"base_page", n.base_page},
                     {"pages", established},
                     {"count", n.count}});
    }
  }

  const SimTime pass_cost = record.phases.sum() - phases_before;
  record.end_ns += pass_cost;
  if (tracer_) {
    tracer_->span(tracks::kCounters, "counter_service", pass_start,
                  record.end_ns,
                  {{"notifications", batch.size()},
                   {"pages_promoted", record.counters.ctr_pages_promoted},
                   {"unpins", record.counters.ctr_unpins}});
  }
}

}  // namespace uvmsim
