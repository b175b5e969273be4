// Interconnect topology: the link graph between the host and the GPUs.
//
// PCIe host links (one per GPU, through the root complex) plus optional
// NVLink peer links (ring or fully connected). A single-GPU node is the
// one-link case. Every transfer routes over the min-cost path; each hop
// keeps the exact PcieLink cost shape (per-op latency + bytes/bandwidth),
// so a 1-GPU PCIe-only topology times a transfer exactly as
// PcieLink::transfer_time does. Per-link byte/op/busy accounting of every
// DMA op feeds the multi-GPU link table and the ablation bench.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "interconnect/pcie.hpp"

namespace uvmsim {

/// Transfer endpoints. Node 0 is the host; GPU g is node g + 1.
using NodeId = std::uint32_t;

constexpr NodeId kHostNode = 0;
constexpr NodeId gpu_node(std::uint32_t gpu) noexcept { return gpu + 1; }

enum class LinkKind : std::uint8_t { kPcie, kNvlink };

/// NVLink 2.0-class peer link (Titan V / V100 era, matching the paper's
/// testbed generation): ~40 GB/s effective per direction-pair and a
/// shorter descriptor path than crossing the PCIe root complex.
struct NvlinkConfig {
  double bytes_per_ns = 40.0;
  SimTime per_op_latency_ns = 700;
};

enum class TopologyKind : std::uint8_t {
  kPcieOnly,    // host-attached PCIe only; peer traffic bounces via host
  kNvlinkRing,  // + NVLink g <-> (g+1) mod N ring
  kNvlinkAll,   // + NVLink between every GPU pair
};

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kPcieOnly;
  std::uint32_t num_gpus = 1;
  NvlinkConfig nvlink;
};

struct LinkDesc {
  NodeId a = 0;
  NodeId b = 0;
  LinkKind kind = LinkKind::kPcie;
  double bytes_per_ns = 0.0;
  SimTime per_op_latency_ns = 0;
  std::string name;
};

struct LinkStats {
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
  SimTime busy_ns = 0;  // total wire time of the ops on this link
};

class Topology {
 public:
  Topology(const TopologyConfig& config, const PcieConfig& pcie);

  std::uint32_t num_gpus() const noexcept { return config_.num_gpus; }
  std::uint32_t num_nodes() const noexcept { return config_.num_gpus + 1; }

  std::size_t num_links() const noexcept { return links_.size(); }
  const LinkDesc& link(std::size_t i) const { return links_.at(i); }
  const LinkStats& stats(std::size_t i) const { return stats_.at(i); }

  /// Link indices along the precomputed min-cost route (empty when
  /// from == to). Routing is deterministic: min summed reference cost,
  /// ties broken by fewer hops, then lexicographically smallest link
  /// index sequence.
  const std::vector<std::uint32_t>& route(NodeId from, NodeId to) const;

  /// Wire time for one DMA op moving `bytes` along the route: each hop
  /// charges exactly the PcieLink shape, per_op + bytes/bandwidth
  /// (store-and-forward at intermediate nodes). 0 when bytes == 0 or
  /// from == to.
  SimTime transfer_time(NodeId from, NodeId to, std::uint64_t bytes) const;

  /// Route cost for a reference 2 MB (one VABlock) transfer — the
  /// placement policy's distance metric.
  SimTime path_cost(NodeId from, NodeId to) const;

  /// True when the route between two GPUs uses NVLink hops only (never
  /// bounces through the host root complex) — the precondition for
  /// treating a peer's HBM as remote-mappable.
  bool nvlink_path(std::uint32_t gpu_a, std::uint32_t gpu_b) const;

  /// Other GPU indices ordered by (path_cost from `gpu`, index) — the
  /// deterministic candidate order for peer placement and promotion.
  const std::vector<std::uint32_t>& peers_by_cost(std::uint32_t gpu) const;

  /// Per-link byte/op/busy accounting along the route (one op per call).
  void record(NodeId from, NodeId to, std::uint64_t bytes);

 private:
  std::size_t route_index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * num_nodes() + to;
  }
  void add_link(NodeId a, NodeId b, LinkKind kind, double bytes_per_ns,
                SimTime per_op_latency_ns);
  void compute_routes();

  TopologyConfig config_;
  PcieConfig pcie_;
  std::vector<LinkDesc> links_;
  std::vector<LinkStats> stats_;
  std::vector<std::vector<std::uint32_t>> adjacency_;  // node -> link idxs
  std::vector<std::vector<std::uint32_t>> routes_;     // from*N+to -> links
  std::vector<std::vector<std::uint32_t>> peer_order_;  // gpu -> peer gpus
};

}  // namespace uvmsim
