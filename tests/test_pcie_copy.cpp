#include <gtest/gtest.h>

#include <initializer_list>

#include "common/page_mask.hpp"
#include "interconnect/copy_engine.hpp"
#include "interconnect/pcie.hpp"
#include "interconnect/topology.hpp"

namespace uvmsim {
namespace {

TEST(PcieLink, TransferTimeIsLatencyPlusWire) {
  PcieConfig cfg;
  cfg.bytes_per_ns = 10.0;
  cfg.per_op_latency_ns = 1000;
  PcieLink link(cfg);
  EXPECT_EQ(link.transfer_time(0), 0u);
  EXPECT_EQ(link.transfer_time(10000), 1000u + 1000u);
  EXPECT_EQ(link.transfer_time(1), 1000u);  // sub-ns wire time truncates
}

TEST(PcieLink, InterruptLatencyFromConfig) {
  PcieConfig cfg;
  cfg.interrupt_latency_ns = 777;
  PcieLink link(cfg);
  EXPECT_EQ(link.interrupt_latency(), 777u);
}

/// The copy engine of a one-GPU node: one PCIe link, host <-> GPU 0.
struct SingleGpu {
  Topology topo{TopologyConfig{}, PcieConfig{}};
  CopyEngine copy{topo};

  const LinkStats& link() const { return topo.stats(0); }
};

PageMask mask_of(std::initializer_list<std::uint32_t> pages) {
  PageMask m;
  for (const std::uint32_t p : pages) m.set(p);
  return m;
}

TEST(CopyEngine, ContiguousPagesCoalesceToOneOp) {
  SingleGpu node;
  const auto r =
      node.copy.copy_pages(mask_of({5, 6, 7, 8}), kHostNode, gpu_node(0));
  EXPECT_EQ(r.dma_ops, 1u);
  EXPECT_EQ(r.bytes, 4 * kPageSize);
  EXPECT_EQ(node.copy.bytes_to_device(), 4 * kPageSize);
}

TEST(CopyEngine, GapsSplitRuns) {
  SingleGpu node;
  const auto r = node.copy.copy_pages(mask_of({1, 2, 10, 11, 12, 50}),
                                      kHostNode, gpu_node(0));
  EXPECT_EQ(r.dma_ops, 3u);
  EXPECT_EQ(r.bytes, 6 * kPageSize);
}

TEST(CopyEngine, ScatteredCostsMoreThanDense) {
  // Same byte count, different layouts: coalescing must make the dense
  // copy cheaper (this is why access pattern shapes Fig 6's variance).
  SingleGpu node;
  PageMask dense, sparse;
  for (std::uint32_t p = 0; p < 64; ++p) {
    dense.set(p);
    sparse.set(p * 2);
  }
  const auto d = node.copy.copy_pages(dense, kHostNode, gpu_node(0));
  const auto s = node.copy.copy_pages(sparse, kHostNode, gpu_node(0));
  EXPECT_LT(d.time_ns, s.time_ns);
  EXPECT_EQ(d.bytes, s.bytes);
}

TEST(CopyEngine, DirectionsAccountedSeparately) {
  SingleGpu node;
  node.copy.copy_pages(mask_of({0}), kHostNode, gpu_node(0));
  node.copy.copy_pages(mask_of({1, 2}), gpu_node(0), kHostNode);
  EXPECT_EQ(node.copy.bytes_to_device(), kPageSize);
  EXPECT_EQ(node.copy.bytes_to_host(), 2 * kPageSize);
  EXPECT_EQ(node.copy.bytes_peer(), 0u);
  EXPECT_EQ(node.link().bytes, 3 * kPageSize);
  EXPECT_EQ(node.link().ops, 2u);
}

TEST(CopyEngine, CopyRangeSingleOp) {
  SingleGpu node;
  const auto r = node.copy.copy_range(512, gpu_node(0), kHostNode);
  EXPECT_EQ(r.dma_ops, 1u);
  EXPECT_EQ(r.bytes, kVaBlockSize);
  EXPECT_EQ(node.copy.bytes_to_host(), kVaBlockSize);
}

TEST(CopyEngine, EmptyInputsAreFree) {
  SingleGpu node;
  EXPECT_EQ(node.copy.copy_pages(PageMask{}, kHostNode, gpu_node(0)).time_ns,
            0u);
  EXPECT_EQ(node.copy.copy_range(0, kHostNode, gpu_node(0)).time_ns, 0u);
  EXPECT_EQ(node.link().ops, 0u);
  EXPECT_EQ(node.copy.bytes_to_device(), 0u);
}

}  // namespace
}  // namespace uvmsim
