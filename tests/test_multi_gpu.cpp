// Multi-GPU placement over the interconnect topology: peer mappings,
// peer-to-peer migration, per-GPU capacity invariants, and the 20-seed
// repeat-determinism fuzz across GPU counts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/log_io.hpp"
#include "core/multi_client.hpp"
#include "core/multi_gpu.hpp"
#include "workloads/peer_share.hpp"

namespace uvmsim {
namespace {

SystemConfig small_config(std::uint32_t gpus, TopologyKind kind,
                          std::uint64_t gpu_memory_mb = 64) {
  SystemConfig config = presets::scaled_titan_v(gpu_memory_mb);
  config.driver.multi_gpu.num_gpus = gpus;
  config.driver.multi_gpu.topology = kind;
  return config;
}

PeerShareParams small_workload(std::uint32_t gpus) {
  PeerShareParams params;
  params.num_gpus = gpus;
  params.private_kb_per_gpu = 256;
  params.shared_kb = 128;
  return params;
}

std::string serialized_log(const BatchLog& log) {
  std::ostringstream out;
  write_batch_log(out, log);
  return out.str();
}

// With one GPU the multi-GPU system must be the multi-client system with
// one client: same arbitration loop, same decorrelated seed, and the same
// one-GPU driver — the batch logs serialize byte-identically.
TEST(MultiGpu, SingleGpuMatchesSingleClientByteExact) {
  const auto wl = make_peer_share(small_workload(1));
  WorkloadSpec spec;
  spec.name = wl.name;
  spec.allocs = wl.allocs;
  spec.kernel = wl.kernels[0];

  MultiGpuSystem multi(small_config(1, TopologyKind::kPcieOnly));
  const auto got = multi.run(wl);

  MultiClientSystem single(small_config(1, TopologyKind::kPcieOnly), 1);
  const auto want = single.run({spec});

  EXPECT_EQ(serialized_log(got.aggregate.log),
            serialized_log(want.per_client[0].log));
  EXPECT_EQ(got.makespan_ns, want.makespan_ns);
  const BatchTotals logged = totals(got.aggregate.log);
  EXPECT_EQ(logged.peer_pages_migrated, 0u);
  EXPECT_EQ(logged.peer_maps, 0u);
  EXPECT_EQ(logged.peer_placements, 0u);
  EXPECT_EQ(logged.bytes_peer, 0u);
}

// The shared region is faulted by every GPU: whoever wins owns it and the
// others must resolve it as peers. Over NVLink that shows up as remote
// maps and/or peer migrations with NVLink bytes; over PCIe-only there is
// no peer mapping (no NVLink path), so touching a peer-owned block always
// migrates — through the host bounce.
TEST(MultiGpu, SharedRegionDrivesPeerTrafficOverNvlink) {
  MultiGpuSystem system(small_config(2, TopologyKind::kNvlinkAll));
  const auto result = system.run(make_peer_share(small_workload(2)));
  const BatchTotals logged = totals(result.aggregate.log);
  EXPECT_GT(logged.peer_maps + logged.peer_pages_migrated, 0u);
  // Any peer migration moved bytes over the NVLink link, never the host.
  if (logged.peer_pages_migrated > 0) {
    EXPECT_GT(logged.bytes_peer, 0u);
    bool nvlink_bytes = false;
    for (const auto& link : result.links) {
      if (link.kind == LinkKind::kNvlink && link.bytes > 0) {
        nvlink_bytes = true;
      }
    }
    EXPECT_TRUE(nvlink_bytes);
  }
}

TEST(MultiGpu, PcieOnlyNeverRemoteMapsPeers) {
  MultiGpuSystem system(small_config(2, TopologyKind::kPcieOnly));
  const auto result = system.run(make_peer_share(small_workload(2)));
  const BatchTotals logged = totals(result.aggregate.log);
  EXPECT_EQ(logged.peer_maps, 0u);
  EXPECT_EQ(logged.peer_placements, 0u);
  for (const auto& link : result.links) {
    EXPECT_EQ(link.kind, LinkKind::kPcie);
  }
}

// classify_for: a resident page is local only to its owner; a peer either
// holds a remote mapping or faults. The two views can never both claim
// kGpuResident for one page.
TEST(MultiGpu, ClassifyForViewsAreOwnerExclusive) {
  MultiGpuSystem system(small_config(2, TopologyKind::kNvlinkAll));
  system.run(make_peer_share(small_workload(2)));
  const UvmDriver& driver = system.driver();
  const PageId total = driver.va_space().total_pages();
  std::uint64_t resident_pages = 0;
  for (PageId p = 0; p < total; ++p) {
    const auto v0 = driver.classify_for(0, p);
    const auto v1 = driver.classify_for(1, p);
    const bool local0 = v0 == ResidencyOracle::PageLocation::kGpuResident;
    const bool local1 = v1 == ResidencyOracle::PageLocation::kGpuResident;
    EXPECT_FALSE(local0 && local1) << "page " << p << " local to both GPUs";
    if (local0 || local1) {
      ++resident_pages;
      EXPECT_TRUE(driver.is_resident_on_gpu(p));
      EXPECT_EQ(driver.is_resident_for(0, p), local0);
      EXPECT_EQ(driver.is_resident_for(1, p), local1);
    }
  }
  EXPECT_GT(resident_pages, 0u);
}

// Rotating producer-consumer handoff (rotate_private): every sweep hands
// each private slice to the next GPU. Under peer-first placement the
// handoff rides the fabric as peer migration; under evict-to-host the
// owner's copy bounces through sysmem instead, so no peer bytes move.
TEST(MultiGpu, RotatingHandoffMigratesPeerToPeer) {
  PeerShareParams params = small_workload(2);
  params.sweeps = 2;
  params.rotate_private = true;

  MultiGpuSystem peer(small_config(2, TopologyKind::kNvlinkAll));
  const auto with_peer = peer.run(make_peer_share(params));
  const BatchTotals peer_log = totals(with_peer.aggregate.log);
  EXPECT_GT(peer_log.peer_pages_migrated, 0u);
  EXPECT_GT(peer_log.bytes_peer, 0u);

  SystemConfig host_config = small_config(2, TopologyKind::kNvlinkAll);
  host_config.driver.multi_gpu.placement = PlacementPolicy::kEvictHost;
  MultiGpuSystem host(host_config);
  const auto with_host = host.run(make_peer_share(params));
  const BatchTotals host_log = totals(with_host.aggregate.log);
  EXPECT_EQ(host_log.peer_pages_migrated, 0u);
  EXPECT_EQ(host_log.bytes_peer, 0u);
  EXPECT_GT(with_host.aggregate.evictions, 0u);
}

// Per-GPU HBM pools never overflow: chunks in use stay within each pool's
// capacity even under shared-region pressure, for both placement policies.
TEST(MultiGpu, PerGpuCapacityHolds) {
  for (const auto placement :
       {PlacementPolicy::kPeerFirst, PlacementPolicy::kEvictHost}) {
    SystemConfig config = small_config(4, TopologyKind::kNvlinkRing, 8);
    config.driver.multi_gpu.placement = placement;
    MultiGpuSystem system(config);
    PeerShareParams params = small_workload(4);
    params.private_kb_per_gpu = 12 * 1024;  // oversubscribe the 8 MB pools
    params.shared_kb = 4 * 1024;
    const auto result = system.run(make_peer_share(params));
    EXPECT_GT(result.aggregate.evictions, 0u);
    for (std::uint32_t g = 0; g < system.num_gpus(); ++g) {
      const GpuMemory& mem = system.driver().gpu_memory(g);
      EXPECT_LE(mem.chunks_in_use(), mem.total_chunks());
    }
  }
}

// Driver-level N>=2 scenarios: one UvmDriver with two NVLink-connected
// GPUs of one 2 MB chunk each, fed hand-built fault batches so each
// placement branch is reached directly.
class TwoGpuDriver : public ::testing::Test {
 protected:
  using Loc = ResidencyOracle::PageLocation;

  static DriverConfig config() {
    DriverConfig cfg;
    cfg.prefetch_enabled = false;  // one faulted page = one target page
    cfg.big_page_promotion = false;
    cfg.multi_gpu.num_gpus = 2;
    cfg.multi_gpu.topology = TopologyKind::kNvlinkAll;
    cfg.access_counters.enabled = true;
    cfg.access_counters.evict_for_promotion = true;
    return cfg;
  }

  static FaultRecord fault(std::uint32_t gpu, PageId page) {
    FaultRecord f;
    f.gpu = gpu;
    f.page = page;
    return f;
  }

  /// GPU 0 fills its only chunk with block 0, then takes a sparse fault on
  /// block 1. Returns that second batch's record.
  BatchRecord borrow() {
    driver.managed_alloc(2 * kVaBlockSize, "buf", HostInit::single());
    driver.handle_batch({fault(0, 0)}, 0);
    return driver.handle_batch({fault(0, kBorrowedPage)}, 1'000'000);
  }

  static constexpr PageId kBorrowedPage = kPagesPerVaBlock + 3;
  UvmDriver driver{config(), kVaBlockSize, 4};
};

// kPeerFirst under local pressure: a sparse fault places the block in the
// cheapest NVLink peer with a free chunk instead of evicting, and the
// faulting GPU maps it remotely.
TEST_F(TwoGpuDriver, PeerFirstBorrowsAPeerChunkForASparseFault) {
  const BatchRecord rec = borrow();
  EXPECT_EQ(rec.counters.peer_placements, 1u);
  EXPECT_EQ(rec.counters.peer_maps, 1u);
  EXPECT_EQ(rec.counters.evictions, 0u);
  EXPECT_EQ(rec.counters.pages_migrated, 1u);
  EXPECT_EQ(driver.gpu_memory(0).chunks_in_use(), 1u);
  EXPECT_EQ(driver.gpu_memory(1).chunks_in_use(), 1u);
  EXPECT_EQ(driver.va_space().block(1).owner_gpu(), 1u);
  EXPECT_EQ(driver.classify_for(0, kBorrowedPage), Loc::kRemoteMapped);
  EXPECT_EQ(driver.classify_for(1, kBorrowedPage), Loc::kGpuResident);
  EXPECT_EQ(driver.classify_for(0, 0), Loc::kGpuResident);
}

// MIMC promotion of a peer-mapped block: the counters prove GPU 0 keeps
// reaching into GPU 1's HBM, so the whole block migrates peer-to-peer to
// GPU 0 (evicting block 0 to make room) and the remote mapping goes.
TEST_F(TwoGpuDriver, CounterPromotionMovesAPeerMappedBlockToItsAccessor) {
  borrow();
  AccessCounterUnit unit(16, 1, 64);
  driver.set_access_counters(&unit);
  unit.record_remote_access(kBorrowedPage, 0, 2'000'000);
  const BatchRecord& rec = driver.service_counter_interrupt(2'000'000);
  EXPECT_EQ(rec.counters.ctr_notifications, 1u);
  EXPECT_EQ(rec.counters.ctr_pages_promoted, 1u);
  EXPECT_EQ(rec.counters.peer_pages_migrated, 1u);
  EXPECT_EQ(rec.counters.bytes_peer, kPageSize);
  EXPECT_EQ(rec.counters.ctr_evictions, 1u);
  EXPECT_EQ(rec.counters.bytes_d2h, kPageSize);  // block 0's writeback
  // That eviction is the counter path's: it charges counter_ns and
  // ctr_evictions, never the fault path's eviction_ns or evictions.
  EXPECT_GE(rec.phases.counter_ns, driver.config().evict_fail_alloc_ns +
                                       driver.config().evict_restart_ns);
  EXPECT_EQ(rec.phases.eviction_ns, 0u);
  EXPECT_EQ(rec.counters.evictions, 0u);
  EXPECT_EQ(driver.total_evictions(), 0u);
  const VaBlockState& block = driver.va_space().block(1);
  EXPECT_EQ(block.owner_gpu(), 0u);
  EXPECT_EQ(block.peer_map_mask(), 0u);
  EXPECT_EQ(driver.gpu_memory(0).chunks_in_use(), 1u);
  EXPECT_EQ(driver.gpu_memory(1).chunks_in_use(), 0u);
  EXPECT_EQ(driver.classify_for(0, kBorrowedPage), Loc::kGpuResident);
  EXPECT_EQ(driver.classify_for(1, kBorrowedPage), Loc::kFaultRequired);
  EXPECT_EQ(driver.classify_for(0, 0), Loc::kFaultRequired);
}

// A full GPU reset tears down every block on every GPU: each chunk goes
// back to the pool of the GPU that owns its block, and each salvage copy
// runs over that GPU's host link.
TEST_F(TwoGpuDriver, GpuResetReturnsEachChunkToItsOwner) {
  driver.managed_alloc(2 * kVaBlockSize, "buf", HostInit::single());
  driver.handle_batch({fault(1, 0)}, 0);                  // block 0 on GPU 1
  driver.handle_batch({fault(0, kBorrowedPage)}, 1'000'000);  // block 1 on 0
  ASSERT_EQ(driver.va_space().block(0).owner_gpu(), 1u);
  ASSERT_EQ(driver.va_space().block(1).owner_gpu(), 0u);

  const auto pcie_bytes = [&](std::uint32_t gpu) {
    const Topology& topo = driver.topology();
    for (std::size_t i = 0; i < topo.num_links(); ++i) {
      if (topo.link(i).name == "pcie:host-gpu" + std::to_string(gpu)) {
        return topo.stats(i).bytes;
      }
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before0 = pcie_bytes(0);
  const std::uint64_t before1 = pcie_bytes(1);

  const BatchRecord& rec = driver.service_gpu_reset(2'000'000);
  EXPECT_EQ(rec.counters.gpu_resets, 1u);
  EXPECT_EQ(rec.counters.bytes_d2h, 2 * kPageSize);
  for (std::uint32_t g = 0; g < 2; ++g) {
    EXPECT_EQ(driver.gpu_memory(g).chunks_in_use(), 0u) << "gpu " << g;
  }
  EXPECT_FALSE(driver.va_space().block(0).has_chunk());
  EXPECT_FALSE(driver.va_space().block(1).has_chunk());
  EXPECT_EQ(pcie_bytes(0) - before0, kPageSize);
  EXPECT_EQ(pcie_bytes(1) - before1, kPageSize);

  // Both GPUs can place a block again afterwards.
  driver.handle_batch({fault(1, kBorrowedPage)}, 3'000'000);
  driver.handle_batch({fault(0, 0)}, 4'000'000);
  EXPECT_EQ(driver.va_space().block(1).owner_gpu(), 1u);
  EXPECT_EQ(driver.va_space().block(0).owner_gpu(), 0u);
  EXPECT_EQ(driver.gpu_memory(0).chunks_in_use(), 1u);
  EXPECT_EQ(driver.gpu_memory(1).chunks_in_use(), 1u);
}

// 20-seed repeat fuzz: for every (gpus, topology), two fresh systems run
// the same seed and serialize byte-identical batch logs.
TEST(MultiGpu, FuzzedRunsRepeatIdentically) {
  for (const std::uint32_t gpus : {2u, 4u}) {
    const TopologyKind kind =
        gpus == 2 ? TopologyKind::kNvlinkAll : TopologyKind::kNvlinkRing;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const auto run_once = [&] {
        SystemConfig config = small_config(gpus, kind, 32);
        config.seed = 0xC0FFEE + seed * 77;
        MultiGpuSystem system(config);
        PeerShareParams params = small_workload(gpus);
        params.private_kb_per_gpu = 96;
        params.shared_kb = 64;
        return serialized_log(system.run(make_peer_share(params)).aggregate.log);
      };
      const std::string first = run_once();
      ASSERT_FALSE(first.empty());
      ASSERT_EQ(run_once(), first) << "gpus=" << gpus << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace uvmsim
