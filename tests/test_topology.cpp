// Interconnect topology: routing, path cost, per-link accounting, and
// the busy-window reservation model (concurrent-transfer semantics).
#include <gtest/gtest.h>

#include "interconnect/copy_engine.hpp"
#include "interconnect/pcie.hpp"
#include "interconnect/topology.hpp"

namespace uvmsim {
namespace {

TopologyConfig make_config(TopologyKind kind, std::uint32_t gpus) {
  TopologyConfig config;
  config.kind = kind;
  config.num_gpus = gpus;
  return config;
}

TEST(Topology, SingleGpuPcieMatchesPcieLinkByteExact) {
  const PcieConfig pcie;
  const PcieLink link(pcie);
  const Topology topo(make_config(TopologyKind::kPcieOnly, 1), pcie);
  for (const std::uint64_t bytes :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{4096},
        std::uint64_t{65536}, std::uint64_t{2} << 20, std::uint64_t{123457}}) {
    if (bytes == 0) {
      EXPECT_EQ(topo.transfer_time(kHostNode, gpu_node(0), bytes), 0u);
      continue;
    }
    EXPECT_EQ(topo.transfer_time(kHostNode, gpu_node(0), bytes),
              link.transfer_time(bytes))
        << "bytes=" << bytes;
    EXPECT_EQ(topo.transfer_time(gpu_node(0), kHostNode, bytes),
              link.transfer_time(bytes));
  }
}

TEST(Topology, PcieOnlyPeerTrafficBouncesThroughHost) {
  const PcieConfig pcie;
  const Topology topo(make_config(TopologyKind::kPcieOnly, 2), pcie);
  const auto& route = topo.route(gpu_node(0), gpu_node(1));
  ASSERT_EQ(route.size(), 2u);  // gpu0 -> host -> gpu1
  EXPECT_EQ(topo.link(route[0]).kind, LinkKind::kPcie);
  EXPECT_EQ(topo.link(route[1]).kind, LinkKind::kPcie);
  EXPECT_FALSE(topo.nvlink_path(0, 1));
  // Store-and-forward: the bounce costs exactly two PCIe hops.
  const PcieLink link(pcie);
  EXPECT_EQ(topo.transfer_time(gpu_node(0), gpu_node(1), 1 << 20),
            2 * link.transfer_time(1 << 20));
}

TEST(Topology, NvlinkRingDirectAndMultiHopRoutes) {
  const PcieConfig pcie;
  const Topology topo(make_config(TopologyKind::kNvlinkRing, 4), pcie);
  // 4 PCIe host links + 4 ring links.
  EXPECT_EQ(topo.num_links(), 8u);

  // Neighbors: one NVLink hop.
  const auto& direct = topo.route(gpu_node(0), gpu_node(1));
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(topo.link(direct[0]).kind, LinkKind::kNvlink);
  EXPECT_TRUE(topo.nvlink_path(0, 1));
  // Wrap-around neighbor: also one hop.
  EXPECT_EQ(topo.route(gpu_node(0), gpu_node(3)).size(), 1u);
  EXPECT_TRUE(topo.nvlink_path(0, 3));

  // The opposite corner: two NVLink hops beat the PCIe host bounce.
  const auto& far = topo.route(gpu_node(0), gpu_node(2));
  ASSERT_EQ(far.size(), 2u);
  for (const auto li : far) {
    EXPECT_EQ(topo.link(li).kind, LinkKind::kNvlink);
  }
  EXPECT_TRUE(topo.nvlink_path(0, 2));
  SimTime hop_sum = 0;
  for (const auto li : far) {
    const LinkDesc& d = topo.link(li);
    hop_sum += d.per_op_latency_ns +
               static_cast<SimTime>((1 << 20) / d.bytes_per_ns);
  }
  EXPECT_EQ(topo.transfer_time(gpu_node(0), gpu_node(2), 1 << 20), hop_sum);
}

TEST(Topology, TwoGpuRingIsSingleLink) {
  const Topology topo(make_config(TopologyKind::kNvlinkRing, 2), PcieConfig{});
  EXPECT_EQ(topo.num_links(), 3u);  // 2 PCIe + 1 NVLink (not a double link)
  EXPECT_EQ(topo.route(gpu_node(0), gpu_node(1)).size(), 1u);
}

TEST(Topology, NvlinkAllIsFullyConnected) {
  const Topology topo(make_config(TopologyKind::kNvlinkAll, 4), PcieConfig{});
  EXPECT_EQ(topo.num_links(), 4u + 6u);
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_EQ(topo.route(gpu_node(a), gpu_node(b)).size(), 1u);
      EXPECT_TRUE(topo.nvlink_path(a, b));
    }
  }
}

TEST(Topology, RoutingIsDeterministicAcrossConstructions) {
  const PcieConfig pcie;
  for (const auto kind : {TopologyKind::kPcieOnly, TopologyKind::kNvlinkRing,
                          TopologyKind::kNvlinkAll}) {
    const Topology a(make_config(kind, 4), pcie);
    const Topology b(make_config(kind, 4), pcie);
    for (NodeId from = 0; from < a.num_nodes(); ++from) {
      for (NodeId to = 0; to < a.num_nodes(); ++to) {
        EXPECT_EQ(a.route(from, to), b.route(from, to));
        EXPECT_EQ(a.path_cost(from, to), b.path_cost(from, to));
      }
    }
    for (std::uint32_t g = 0; g < 4; ++g) {
      EXPECT_EQ(a.peers_by_cost(g), b.peers_by_cost(g));
    }
  }
}

TEST(Topology, PeersByCostOrdersNvlinkNeighborsFirst) {
  const Topology topo(make_config(TopologyKind::kNvlinkRing, 4), PcieConfig{});
  // GPU 0's ring neighbors (1 and 3, equal cost -> index order) come
  // before the two-hop opposite corner (2).
  const auto& peers = topo.peers_by_cost(0);
  ASSERT_EQ(peers.size(), 3u);
  EXPECT_EQ(peers[0], 1u);
  EXPECT_EQ(peers[1], 3u);
  EXPECT_EQ(peers[2], 2u);
}

TEST(Topology, RecordAccountsEveryLinkOnTheRoute) {
  Topology topo(make_config(TopologyKind::kPcieOnly, 2), PcieConfig{});
  topo.record(gpu_node(0), gpu_node(1), 4096);
  std::uint64_t touched = 0;
  for (std::size_t i = 0; i < topo.num_links(); ++i) {
    if (topo.stats(i).ops == 0) continue;
    ++touched;
    EXPECT_EQ(topo.stats(i).bytes, 4096u);
    EXPECT_GT(topo.stats(i).busy_ns, 0u);
  }
  EXPECT_EQ(touched, 2u);  // both PCIe hops of the host bounce
}

// The copy-engine concurrency fix: transfers on independent links overlap
// in time; transfers sharing a link serialize. The old single-link model
// forced everything into one queue.
TEST(Topology, ReserveOverlapsIndependentLinksAndSerializesSharedOnes) {
  Topology topo(make_config(TopologyKind::kNvlinkAll, 3), PcieConfig{});

  // Host->GPU0 (PCIe) and GPU1->GPU2 (NVLink) share nothing: both start
  // at their earliest start.
  const auto a = topo.reserve(kHostNode, gpu_node(0), 1 << 20, 100);
  const auto b = topo.reserve(gpu_node(1), gpu_node(2), 1 << 20, 100);
  EXPECT_EQ(a.start, 100u);
  EXPECT_EQ(b.start, 100u);
  EXPECT_GT(a.finish, a.start);
  EXPECT_GT(b.finish, b.start);

  // A second host->GPU0 transfer contends for the same PCIe link: it
  // queues behind the first.
  const auto c = topo.reserve(kHostNode, gpu_node(0), 1 << 20, 100);
  EXPECT_EQ(c.start, a.finish);
  EXPECT_EQ(c.finish - c.start, a.finish - a.start);
}

TEST(CopyEngine, SingleGpuPcieMatchesPcieLinkTransferTime) {
  // A one-GPU node's copies cost exactly what PcieLink charges: one
  // transfer_time per DMA op, i.e. per range or per run of a page mask.
  const PcieConfig pcie;
  const PcieLink link(pcie);
  Topology topo(make_config(TopologyKind::kPcieOnly, 1), pcie);
  CopyEngine engine(topo);

  const auto range = engine.copy_range(64, kHostNode, gpu_node(0));
  EXPECT_EQ(range.time_ns, link.transfer_time(64 * kPageSize));
  EXPECT_EQ(range.bytes, 64 * kPageSize);
  EXPECT_EQ(range.dma_ops, 1u);

  PageMask pages;  // runs of 10 pages across a word boundary, and 3 pages
  for (std::uint32_t p = 60; p < 70; ++p) pages.set(p);
  pages.set(500).set(501).set(502);
  const auto runs = engine.copy_pages(pages, gpu_node(0), kHostNode);
  EXPECT_EQ(runs.time_ns, link.transfer_time(10 * kPageSize) +
                              link.transfer_time(3 * kPageSize));
  EXPECT_EQ(runs.bytes, 13 * kPageSize);
  EXPECT_EQ(runs.dma_ops, 2u);

  EXPECT_EQ(engine.bytes_to_device(), 64 * kPageSize);
  EXPECT_EQ(engine.bytes_to_host(), 13 * kPageSize);
  EXPECT_EQ(engine.bytes_peer(), 0u);
}

TEST(CopyEngine, PeerCopyAccountsPeerBytesNotHostBytes) {
  const PcieConfig pcie;
  Topology topo(make_config(TopologyKind::kNvlinkAll, 2), pcie);
  CopyEngine engine(topo);
  const auto got = engine.copy_range(8, gpu_node(0), gpu_node(1));
  EXPECT_EQ(got.bytes, 8u * kPageSize);
  EXPECT_EQ(engine.bytes_peer(), 8u * kPageSize);
  EXPECT_EQ(engine.bytes_to_device(), 0u);
  EXPECT_EQ(engine.bytes_to_host(), 0u);
  // And the transfer rode the NVLink, not the PCIe links.
  bool nvlink_used = false;
  for (std::size_t i = 0; i < topo.num_links(); ++i) {
    if (topo.stats(i).ops == 0) continue;
    EXPECT_EQ(topo.link(i).kind, LinkKind::kNvlink);
    nvlink_used = true;
  }
  EXPECT_TRUE(nvlink_used);
}

}  // namespace
}  // namespace uvmsim
