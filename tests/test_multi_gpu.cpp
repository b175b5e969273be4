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
// one client: same arbitration loop, same decorrelated seed, and the
// driver in legacy single-GPU mode — the batch logs serialize
// byte-identically.
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
  EXPECT_EQ(got.peer_pages_migrated, 0u);
  EXPECT_EQ(got.peer_maps, 0u);
  EXPECT_EQ(got.peer_placements, 0u);
  EXPECT_EQ(got.bytes_peer, 0u);
}

// The shared region is faulted by every GPU: whoever wins owns it and the
// others must resolve it as peers. Over NVLink that shows up as remote
// maps and/or peer migrations with NVLink bytes; over PCIe-only there is
// no peer mapping (no NVLink path), so touching a peer-owned block always
// migrates — through the host bounce.
TEST(MultiGpu, SharedRegionDrivesPeerTrafficOverNvlink) {
  MultiGpuSystem system(small_config(2, TopologyKind::kNvlinkAll));
  const auto result = system.run(make_peer_share(small_workload(2)));
  EXPECT_GT(result.peer_maps + result.peer_pages_migrated, 0u);
  // Any peer migration moved bytes over the NVLink link, never the host.
  if (result.peer_pages_migrated > 0) {
    EXPECT_GT(result.bytes_peer, 0u);
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
  EXPECT_EQ(result.peer_maps, 0u);
  EXPECT_EQ(result.peer_placements, 0u);
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
  EXPECT_GT(with_peer.peer_pages_migrated, 0u);
  EXPECT_GT(with_peer.bytes_peer, 0u);

  SystemConfig host_config = small_config(2, TopologyKind::kNvlinkAll);
  host_config.driver.multi_gpu.placement = PlacementPolicy::kEvictHost;
  MultiGpuSystem host(host_config);
  const auto with_host = host.run(make_peer_share(params));
  EXPECT_EQ(with_host.peer_pages_migrated, 0u);
  EXPECT_EQ(with_host.bytes_peer, 0u);
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
      const GpuMemory& mem = system.driver().gpu_memory_of(g);
      EXPECT_LE(mem.chunks_in_use(), mem.total_chunks());
    }
  }
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
