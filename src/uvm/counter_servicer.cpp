#include "uvm/counter_servicer.hpp"

#include <optional>
#include <stdexcept>
#include <vector>

namespace uvmsim {

CounterServicer::CounterServicer(const DriverConfig& config, VaSpace& space,
                                 GpuMemory& memory, CopyEngine& copy,
                                 Evictor& evictor, ThrashingDetector* thrash,
                                 Obs obs)
    : config_(config),
      space_(space),
      memory_(memory),
      copy_(copy),
      evictor_(evictor),
      thrash_(thrash),
      obs_(obs) {}

void CounterServicer::evict_one(std::uint32_t gpu, VaBlockId protect,
                                BatchRecord& record) {
  const SimTime evict_t0 = record.start_ns + record.phases.sum();
  record.phases.counter_ns += config_.evict_fail_alloc_ns;

  Evictor& evictor = evictor_of(gpu);
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
  if (resident > 0) {
    const auto xfer =
        multi_gpu()
            ? copy_.copy_range_between(first_page_of(*victim), resident,
                                       gpu_node(gpu), kHostNode)
            : copy_.copy_range(first_page_of(*victim), resident,
                               CopyDirection::kDeviceToHost);
    record.phases.counter_ns += xfer.time_ns;
    record.counters.bytes_d2h += xfer.bytes;
  }
  const auto chunk = v.chunk();
  v.evict_to_host();
  if (chunk) memory_of(gpu).free_chunk(*chunk);
  evictor.remove(*victim);
  if (thrash_) {
    thrash_->record_eviction(*victim, record.start_ns + record.phases.sum());
  }

  record.phases.counter_ns += config_.evict_restart_ns;
  ++record.counters.ctr_evictions;
  ++evictions_;
  if (obs_.tracer) {
    obs_.tracer->span(tracks::kCounters, "evict", evict_t0,
                      record.start_ns + record.phases.sum(),
                      {{"victim", *victim}, {"pages_written_back", resident}});
  }
  if (config_.record_vablock_detail) {
    record.evicted_blocks.push_back(*victim);
  }
}

bool CounterServicer::ensure_chunk(std::uint32_t gpu, VaBlockId id,
                                   VaBlockState& block, BatchRecord& record) {
  if (block.has_chunk()) return false;
  for (;;) {
    if (const auto chunk = memory_of(gpu).alloc_chunk(); chunk) {
      block.set_chunk(*chunk);
      if (multi_gpu()) block.set_owner_gpu(gpu);
      return true;
    }
    if (!config_.eviction_enabled) {
      throw std::runtime_error(
          "uvmsim: GPU memory oversubscribed with eviction disabled");
    }
    evict_one(gpu, id, record);
  }
}

std::uint32_t CounterServicer::pick_target_gpu(const VaBlockState& block) {
  if (!multi_gpu()) return 0;
  const std::uint32_t last = block.last_gpu();
  if (!memory_of(last).full()) return last;
  // The hot GPU's HBM is full: the next-best placement is the cheapest
  // peer (by fabric path cost from the accessor) with a free chunk.
  for (const std::uint32_t p : topo_->peers_by_cost(last)) {
    if (!memory_of(p).full()) return p;
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
  if (memory_of(target).full() &&
      !(config_.access_counters.evict_for_promotion &&
        config_.eviction_enabled)) {
    return;  // opportunistic promotion only, same as the host path
  }

  const SimTime promote_t0 = record.start_ns + record.phases.sum();
  std::vector<PageId> resident_pages;
  const PageId base = first_page_of(id);
  block.gpu_resident().for_each_set(
      [&](std::uint32_t i) { resident_pages.push_back(base + i); });
  const auto old_chunk = block.chunk();
  std::optional<GpuMemory::ChunkId> dst;
  for (;;) {
    if ((dst = memory_of(target).alloc_chunk())) break;
    if (!config_.eviction_enabled) {
      throw std::runtime_error(
          "uvmsim: GPU memory oversubscribed with eviction disabled");
    }
    evict_one(target, id, record);
  }
  if (!resident_pages.empty()) {
    const auto xfer = copy_.copy_pages_between(resident_pages,
                                               gpu_node(owner),
                                               gpu_node(target));
    record.phases.counter_ns += xfer.time_ns;
    record.counters.bytes_peer += xfer.bytes;
    record.counters.peer_pages_migrated +=
        static_cast<std::uint32_t>(resident_pages.size());
    record.counters.ctr_pages_promoted +=
        static_cast<std::uint32_t>(resident_pages.size());
    promoted_ += resident_pages.size();
  }
  if (old_chunk) memory_of(owner).free_chunk(*old_chunk);
  evictor_of(owner).remove(id);
  block.set_chunk(*dst);
  block.set_owner_gpu(target);
  block.clear_peer_maps();
  record.phases.counter_ns +=
      config_.per_page_pte_ns *
      static_cast<SimTime>(resident_pages.size());
  evictor_of(target).touch(id);
  if (obs_.tracer) {
    obs_.tracer->span(tracks::kCounters, "peer_promote", promote_t0,
                      record.start_ns + record.phases.sum(),
                      {{"block", id},
                       {"from", owner},
                       {"to", target},
                       {"pages", resident_pages.size()}});
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
  if (obs_.tracer && dropped_delta > 0) {
    obs_.tracer->instant(tracks::kCounters, "counter_buffer_overflow",
                         pass_start, {{"dropped", dropped_delta}});
  }

  const auto batch = unit.drain_arrived(cfg.batch_size, pass_start);
  if (batch.empty()) {
    if (obs_.metrics && dropped_delta > 0) {
      obs_.metrics->add("counter.dropped", dropped_delta);
    }
    return;  // nothing arrived: the driver never wakes for this channel
  }

  const SimTime phases_before = record.phases.sum();
  record.phases.counter_ns +=
      cfg.service_fixed_ns + cfg.per_notification_ns * batch.size();
  record.counters.ctr_notifications +=
      static_cast<std::uint32_t>(batch.size());

  for (const auto& n : batch) {
    // Clear-on-service: re-arm the region whether or not it migrates.
    unit.clear_region(n.base_page, n.type);
    record.phases.counter_ns += cfg.clear_ns;
    if (n.type != CounterType::kMimc) continue;  // MOMC: no local promotion

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
    if (multi_gpu() && block.has_chunk() && block.peer_map_mask() != 0) {
      promote_peer_block(block_id, block, record);
      continue;
    }

    // Promotion target: the best-placed GPU (single-GPU: always 0).
    const std::uint32_t target = pick_target_gpu(block);

    // Opportunistic promotion: unless the config says otherwise, counter
    // migration never steals memory from the live working set. A region
    // whose block has no chunk while GPU memory is full stays remote —
    // re-armed by the clear above, pin intact — and retries on the next
    // threshold crossing.
    if (!block.has_chunk() && memory_of(target).full() &&
        !(cfg.evict_for_promotion && config_.eviction_enabled)) {
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

    const std::uint32_t first = page_index_in_block(n.base_page);
    const std::uint32_t last_excl = first + n.region_pages;  // never spans
    std::vector<PageId> migrate;
    std::uint32_t populate = 0;
    bool any_target = false;
    for (std::uint32_t i = first; i < last_excl; ++i) {
      if (block.gpu_resident()[i]) continue;
      any_target = true;
      if (block.host_data()[i]) {
        migrate.push_back(first_page_of(block_id) + i);
      } else {
        ++populate;
      }
    }
    if (!any_target) continue;  // region re-faulted home since notifying

    const SimTime promote_t0 = record.start_ns + record.phases.sum();
    // GPU backing; eviction may run inside. A fresh chunk populates every
    // target page first (restart semantics, same as the fault path).
    const bool fresh_chunk = ensure_chunk(target, block_id, block, record);
    if (fresh_chunk) {
      populate += static_cast<std::uint32_t>(migrate.size());
    }
    record.phases.counter_ns += config_.per_page_populate_ns * populate;
    record.counters.pages_populated += populate;

    if (!migrate.empty()) {
      const auto xfer =
          multi_gpu()
              ? copy_.copy_pages_between(migrate, kHostNode,
                                         gpu_node(block.owner_gpu()))
              : copy_.copy_pages(migrate, CopyDirection::kHostToDevice);
      record.phases.counter_ns += xfer.time_ns;
      record.counters.bytes_h2d += xfer.bytes;
      record.counters.ctr_pages_promoted +=
          static_cast<std::uint32_t>(migrate.size());
      promoted_ += migrate.size();
    }

    std::uint32_t established = 0;
    for (std::uint32_t i = first; i < last_excl; ++i) {
      if (block.gpu_resident()[i]) continue;
      block.set_gpu_resident(i);
      ++established;
    }
    record.phases.counter_ns += config_.per_page_pte_ns * established;
    evictor_of(block.owner_gpu()).touch(block_id);
    if (obs_.tracer) {
      obs_.tracer->span(tracks::kCounters, "promote", promote_t0,
                        record.start_ns + record.phases.sum(),
                        {{"block", block_id},
                         {"base_page", n.base_page},
                         {"pages", established},
                         {"count", n.count}});
    }
  }

  const SimTime pass_cost = record.phases.sum() - phases_before;
  record.end_ns += pass_cost;
  if (obs_.tracer) {
    obs_.tracer->span(tracks::kCounters, "counter_service", pass_start,
                      record.end_ns,
                      {{"notifications", batch.size()},
                       {"pages_promoted", record.counters.ctr_pages_promoted},
                       {"unpins", record.counters.ctr_unpins}});
  }
  if (obs_.metrics) {
    obs_.metrics->add("counter.passes");
    obs_.metrics->add("counter.notifications", batch.size());
    obs_.metrics->add("counter.pages_promoted",
                      record.counters.ctr_pages_promoted);
    obs_.metrics->add("counter.unpins", record.counters.ctr_unpins);
    obs_.metrics->add("counter.evictions", record.counters.ctr_evictions);
    if (dropped_delta > 0) obs_.metrics->add("counter.dropped", dropped_delta);
    obs_.metrics->add("counter.service_ns", pass_cost);
  }
}

}  // namespace uvmsim
