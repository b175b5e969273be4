#include "uvm/uvm_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace uvmsim {

namespace {

/// `config`, unless no run could complete under it. A zero fetch limit
/// services empty batches forever, and a GPU without one whole chunk
/// cannot back a single VABlock.
DriverConfig validated(DriverConfig config, std::uint64_t gpu_memory_bytes) {
  if (config.batch_size == 0) {
    throw std::invalid_argument("UvmDriver: batch_size must be at least 1");
  }
  if (config.adaptive_batch_size &&
      (config.adaptive_min_batch == 0 || config.adaptive_max_batch == 0)) {
    throw std::invalid_argument(
        "UvmDriver: adaptive batch sizing needs adaptive_min_batch and "
        "adaptive_max_batch of at least 1");
  }
  if (config.multi_gpu.num_gpus == 0) {
    throw std::invalid_argument("UvmDriver: multi_gpu.num_gpus must be >= 1");
  }
  if (gpu_memory_bytes < kVaBlockSize) {
    throw std::invalid_argument(
        "UvmDriver: GPU memory of " + std::to_string(gpu_memory_bytes) +
        " bytes is below one 2 MB chunk");
  }
  return config;
}

GpuMemCtxs make_gpus(const DriverConfig& config,
                     std::uint64_t gpu_memory_bytes) {
  const Evictor::Policy policy = config.evict_policy == EvictPolicy::kLru
                                     ? Evictor::Policy::kLru
                                     : Evictor::Policy::kFifo;
  GpuMemCtxs gpus;
  gpus.reserve(config.multi_gpu.num_gpus);
  for (std::uint32_t g = 0; g < config.multi_gpu.num_gpus; ++g) {
    gpus.emplace_back(gpu_memory_bytes, policy);
  }
  return gpus;
}

}  // namespace

UvmDriver::UvmDriver(DriverConfig config, std::uint64_t gpu_memory_bytes,
                     std::uint32_t num_sms, PcieConfig pcie,
                     FaultInjector* injector, Obs obs)
    : config_(validated(std::move(config), gpu_memory_bytes)),
      obs_(obs),
      pcie_(pcie),
      topo_(TopologyConfig{config_.multi_gpu.topology,
                           config_.multi_gpu.num_gpus,
                           config_.multi_gpu.nvlink},
            pcie),
      gpus_(make_gpus(config_, gpu_memory_bytes)),
      copy_(topo_),
      dma_(config_.dma),
      thrash_(config_.thrash),
      recovery_(config_, space_, gpus_, dma_, copy_, obs),
      servicer_(config_, space_, topo_, gpus_, dma_, copy_, num_sms, injector,
                &thrash_, obs),
      counter_servicer_(config_, space_, topo_, gpus_, copy_, servicer_,
                        &thrash_, obs),
      effective_batch_size_(config_.batch_size) {
  copy_.set_obs(obs_);
  dma_.set_obs(obs_);
  servicer_.set_recovery(&recovery_);
}

const AllocationInfo& UvmDriver::managed_alloc(std::uint64_t bytes,
                                               std::string name,
                                               HostInit init,
                                               MemAdvise advise) {
  return space_.allocate(bytes, std::move(name), init, advise);
}

const BatchRecord& UvmDriver::handle_batch(const std::vector<FaultRecord>& raw,
                                           SimTime start,
                                           std::uint32_t buffer_dropped) {
  BatchRecord record = servicer_.service(
      raw, start, static_cast<std::uint32_t>(log_.size()));
  record.counters.buffer_dropped = buffer_dropped;
  // Access counters are serviced after the replayable-fault batch (the
  // hardware channels share the driver bottom half, faults first); the
  // pass extends the batch record's counter_ns phase and end time.
  if (counters_) counter_servicer_.service(*counters_, record);
  // Retired-page pool overflow escalates to a full GPU reset (recovery
  // tier 4) as the last step of the bottom half; the node's event chain sees the
  // reset through the recovery counters and resets the GPU engine side.
  if (recovery_.take_gpu_reset_request()) recovery_.full_gpu_reset(record);
  total_batch_ns_ += record.duration_ns();
  clock_ns_ = record.end_ns;
  if (config_.async_host_ops) {
    async_ns_ += record.phases.unmap_ns + record.phases.dma_map_ns;
  }

  // §6 adaptive batch sizing: react to the duplicate rate just observed.
  if (config_.adaptive_batch_size && record.counters.raw_faults > 0) {
    const double dup_rate =
        1.0 - static_cast<double>(record.counters.unique_faults) /
                  static_cast<double>(record.counters.raw_faults);
    if (dup_rate > config_.adaptive_high_dup_rate) {
      effective_batch_size_ =
          std::max(config_.adaptive_min_batch, effective_batch_size_ / 2);
    } else if (dup_rate < config_.adaptive_low_dup_rate) {
      effective_batch_size_ =
          std::min(config_.adaptive_max_batch, effective_batch_size_ * 2);
    }
  }

  if (obs_.any()) {
    if (obs_.tracer && record.counters.buffer_dropped > 0) {
      obs_.tracer->instant(tracks::kDriver, "buffer_overflow", record.start_ns,
                           {{"dropped", record.counters.buffer_dropped}});
    }
    record_batch_metrics(record);
  }

  log_.push_back(std::move(record));
  return log_.back();
}

const BatchRecord& UvmDriver::service_counter_interrupt(SimTime start) {
  BatchRecord record;
  record.id = static_cast<std::uint32_t>(log_.size());
  record.start_ns = start;
  record.end_ns = start;
  counter_servicer_.service(*counters_, record);
  total_batch_ns_ += record.duration_ns();
  clock_ns_ = record.end_ns;
  if (obs_.any()) record_batch_metrics(record);
  log_.push_back(std::move(record));
  return log_.back();
}

const BatchRecord& UvmDriver::service_channel_reset(SimTime start) {
  BatchRecord record;
  record.id = static_cast<std::uint32_t>(log_.size());
  record.start_ns = start;
  recovery_.channel_reset(record);
  record.end_ns = start + record.phases.sum();
  total_batch_ns_ += record.duration_ns();
  clock_ns_ = record.end_ns;
  if (obs_.any()) record_batch_metrics(record);
  log_.push_back(std::move(record));
  return log_.back();
}

const BatchRecord& UvmDriver::service_gpu_reset(SimTime start) {
  BatchRecord record;
  record.id = static_cast<std::uint32_t>(log_.size());
  record.start_ns = start;
  record.end_ns = start;  // full_gpu_reset extends by what it charges
  recovery_.full_gpu_reset(record);
  total_batch_ns_ += record.duration_ns();
  clock_ns_ = record.end_ns;
  if (obs_.any()) record_batch_metrics(record);
  log_.push_back(std::move(record));
  return log_.back();
}

void UvmDriver::record_batch_metrics(const BatchRecord& record) {
  MetricsRegistry* const m = obs_.metrics;
  if (!m) return;

  m->add("driver.batches");
  m->add("driver.batch_time_ns", record.duration_ns());
  m->set_gauge("driver.effective_batch_size", effective_batch_size_);

  // Every BatchCounters field, under the same name. The differential test
  // (tests/test_metrics.cpp) asserts these totals equal the batch-log sums
  // field by field — add a counter here when adding one to BatchCounters.
  const BatchCounters& c = record.counters;
  m->add("driver.raw_faults", c.raw_faults);
  m->add("driver.unique_faults", c.unique_faults);
  m->add("driver.dup_same_utlb", c.dup_same_utlb);
  m->add("driver.dup_cross_utlb", c.dup_cross_utlb);
  m->add("driver.read_faults", c.read_faults);
  m->add("driver.write_faults", c.write_faults);
  m->add("driver.prefetch_faults", c.prefetch_faults);
  m->add("driver.vablocks_touched", c.vablocks_touched);
  m->add("driver.first_touch_vablocks", c.first_touch_vablocks);
  m->add("driver.pages_migrated", c.pages_migrated);
  m->add("driver.pages_populated", c.pages_populated);
  m->add("driver.pages_prefetched", c.pages_prefetched);
  m->add("driver.bytes_h2d", c.bytes_h2d);
  m->add("driver.bytes_d2h", c.bytes_d2h);
  m->add("driver.evictions", c.evictions);
  m->add("driver.unmap_calls", c.unmap_calls);
  m->add("driver.pages_unmapped", c.pages_unmapped);
  m->add("driver.dma_pages_mapped", c.dma_pages_mapped);
  m->add("driver.radix_nodes_allocated", c.radix_nodes_allocated);
  m->add("driver.radix_growth_batches", c.radix_grew ? 1 : 0);
  m->add("driver.transfer_errors", c.transfer_errors);
  m->add("driver.transfer_retries", c.transfer_retries);
  m->add("driver.dma_map_errors", c.dma_map_errors);
  m->add("driver.dma_map_retries", c.dma_map_retries);
  m->add("driver.service_aborts", c.service_aborts);
  m->add("driver.thrash_pins", c.thrash_pins);
  m->add("driver.thrash_throttles", c.thrash_throttles);
  m->add("driver.buffer_dropped", c.buffer_dropped);
  m->add("driver.faults_cancelled", c.faults_cancelled);
  m->add("driver.pages_retired", c.pages_retired);
  m->add("driver.chunks_retired", c.chunks_retired);
  m->add("driver.channel_resets", c.channel_resets);
  m->add("driver.gpu_resets", c.gpu_resets);
  m->add("driver.ctr_notifications", c.ctr_notifications);
  m->add("driver.ctr_dropped", c.ctr_dropped);
  m->add("driver.ctr_pages_promoted", c.ctr_pages_promoted);
  m->add("driver.ctr_unpins", c.ctr_unpins);
  m->add("driver.ctr_evictions", c.ctr_evictions);
  m->add("driver.peer_pages_migrated", c.peer_pages_migrated);
  m->add("driver.bytes_peer", c.bytes_peer);
  m->add("driver.peer_maps", c.peer_maps);
  m->add("driver.peer_placements", c.peer_placements);

  // Every phase timer, as accumulated ns. Same contract as the counters.
  const BatchPhaseTimes& p = record.phases;
  m->add("phase.fetch_ns", p.fetch_ns);
  m->add("phase.dedup_ns", p.dedup_ns);
  m->add("phase.vablock_ns", p.vablock_ns);
  m->add("phase.eviction_ns", p.eviction_ns);
  m->add("phase.unmap_ns", p.unmap_ns);
  m->add("phase.populate_ns", p.populate_ns);
  m->add("phase.dma_map_ns", p.dma_map_ns);
  m->add("phase.prefetch_ns", p.prefetch_ns);
  m->add("phase.transfer_ns", p.transfer_ns);
  m->add("phase.pagetable_ns", p.pagetable_ns);
  m->add("phase.replay_ns", p.replay_ns);
  m->add("phase.backoff_ns", p.backoff_ns);
  m->add("phase.throttle_ns", p.throttle_ns);
  m->add("phase.counter_ns", p.counter_ns);
  m->add("phase.recovery_ns", p.recovery_ns);

  // Batch-shape distributions (Figure 6-style analyses).
  m->observe("batch.duration_ns", record.duration_ns());
  m->observe("batch.raw_faults", c.raw_faults);
  m->observe("batch.unique_faults", c.unique_faults);
  m->observe("batch.vablocks_touched", c.vablocks_touched);
}

}  // namespace uvmsim
