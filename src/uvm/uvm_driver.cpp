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
  GpuMemCtxs gpus;
  gpus.reserve(config.multi_gpu.num_gpus);
  for (std::uint32_t g = 0; g < config.multi_gpu.num_gpus; ++g) {
    gpus.emplace_back(gpu_memory_bytes, config.evict_policy);
  }
  return gpus;
}

}  // namespace

UvmDriver::UvmDriver(DriverConfig config, std::uint64_t gpu_memory_bytes,
                     std::uint32_t num_sms, PcieConfig pcie,
                     FaultInjector* injector, Tracer* tracer)
    : config_(validated(std::move(config), gpu_memory_bytes)),
      tracer_(tracer),
      pcie_(pcie),
      topo_(TopologyConfig{config_.multi_gpu.topology,
                           config_.multi_gpu.num_gpus,
                           config_.multi_gpu.nvlink},
            pcie),
      gpus_(make_gpus(config_, gpu_memory_bytes)),
      copy_(topo_),
      dma_(config_.dma),
      thrash_(config_.thrash),
      recovery_(config_, space_, gpus_, dma_, copy_, tracer),
      servicer_(config_, space_, topo_, gpus_, dma_, copy_, num_sms, injector,
                &thrash_, tracer),
      counter_servicer_(config_, space_, topo_, gpus_, copy_, servicer_,
                        &thrash_, tracer),
      effective_batch_size_(config_.batch_size) {
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

  if (tracer_ && record.counters.buffer_dropped > 0) {
    tracer_->instant(tracks::kDriver, "buffer_overflow", record.start_ns,
                     {{"dropped", record.counters.buffer_dropped}});
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
  clock_ns_ = record.end_ns;
  log_.push_back(std::move(record));
  return log_.back();
}

const BatchRecord& UvmDriver::service_channel_reset(SimTime start) {
  BatchRecord record;
  record.id = static_cast<std::uint32_t>(log_.size());
  record.start_ns = start;
  recovery_.channel_reset(record);
  record.end_ns = start + record.phases.sum();
  clock_ns_ = record.end_ns;
  log_.push_back(std::move(record));
  return log_.back();
}

const BatchRecord& UvmDriver::service_gpu_reset(SimTime start) {
  BatchRecord record;
  record.id = static_cast<std::uint32_t>(log_.size());
  record.start_ns = start;
  record.end_ns = start;  // full_gpu_reset extends by what it charges
  recovery_.full_gpu_reset(record);
  clock_ns_ = record.end_ns;
  log_.push_back(std::move(record));
  return log_.back();
}

}  // namespace uvmsim
