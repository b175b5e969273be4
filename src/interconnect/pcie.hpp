// PCIe interconnect model: transfer timing and interrupt delivery.
//
// The authors' testbed attaches a Titan V over PCIe 3.0 x16 (~12 GB/s
// effective). The paper's headline finding is that transfer time is a
// minority of batch time (Fig 7), so a latency + bandwidth model is the
// right fidelity: per-operation DMA setup latency plus a throughput term.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace uvmsim {

struct PcieConfig {
  double bytes_per_ns = 12.0;        // ~12 GB/s effective PCIe 3.0 x16
  SimTime per_op_latency_ns = 1500;  // DMA descriptor + doorbell + completion
  SimTime interrupt_latency_ns = 2000;  // MSI delivery to host ISR
};

class PcieLink {
 public:
  explicit PcieLink(PcieConfig config = {}) : config_(config) {}

  /// Time for one DMA operation moving `bytes` in either direction.
  SimTime transfer_time(std::uint64_t bytes) const noexcept;

  /// Latency from GMMU raising an interrupt to the host ISR running.
  SimTime interrupt_latency() const noexcept {
    return config_.interrupt_latency_ns;
  }

  const PcieConfig& config() const noexcept { return config_; }

 private:
  PcieConfig config_;
};

}  // namespace uvmsim
