// GPU copy engine: executes page migrations between the host and the GPUs.
//
// The driver instructs the GPU (through the command push-buffer) to copy
// pages with hardware copy engines. Contiguous page runs coalesce into a
// single DMA operation — this is why fault batches that migrate dense
// ranges are so much cheaper per byte than scattered ones.
//
// Every copy is addressed by its endpoints (the host or GPU g): each DMA
// op routes over the topology's min-cost path and is booked on every link
// of the route. A one-GPU PCIe-only topology times a copy exactly as
// PcieLink::transfer_time does.
#pragma once

#include <cstdint>

#include "common/page_mask.hpp"
#include "common/types.hpp"
#include "interconnect/topology.hpp"
#include "obs/obs.hpp"

namespace uvmsim {

class CopyEngine {
 public:
  explicit CopyEngine(Topology& topo) : topo_(topo) {}

  struct CopyResult {
    SimTime time_ns = 0;
    std::uint32_t dma_ops = 0;
    std::uint64_t bytes = 0;
  };

  /// Copy one VABlock's pages set in `pages` from `from` to `to`: each
  /// maximal run of consecutive pages is one DMA operation.
  CopyResult copy_pages(const PageMask& pages, NodeId from, NodeId to);

  /// Copy `count` contiguous pages as one DMA operation (whole-block
  /// writebacks and salvage).
  CopyResult copy_range(std::uint64_t count, NodeId from, NodeId to);

  std::uint64_t bytes_to_device() const noexcept { return to_device_; }
  std::uint64_t bytes_to_host() const noexcept { return to_host_; }
  std::uint64_t bytes_peer() const noexcept { return peer_; }

  /// Attach observability sinks (copy ops/bytes counters, DMA-run-length
  /// histogram). Null members = no recording.
  void set_obs(Obs obs) noexcept { obs_ = obs; }

 private:
  /// One DMA op of `count` contiguous pages, added to `out` and booked on
  /// every link of the route.
  void dma(std::uint64_t count, NodeId from, NodeId to, CopyResult& out);

  /// Per-direction and metrics accounting of one finished copy.
  void account(NodeId from, NodeId to, const CopyResult& copy);

  Topology& topo_;
  Obs obs_;
  std::uint64_t to_device_ = 0;
  std::uint64_t to_host_ = 0;
  std::uint64_t peer_ = 0;  // GPU<->GPU bytes
};

}  // namespace uvmsim
