// Multi-GPU peer-sharing workload: the scenario the interconnect
// topology exists for.
//
// Each GPU owns a private slice it sweeps read+write (the partitioned
// bulk of a domain decomposition) and every GPU reads a shared region
// (the halo / reduction buffer). Whoever faults a shared VABlock first
// becomes its owner; the other GPUs then either remote-map it over
// NVLink or migrate it peer-to-peer — exactly the placement decisions
// the topology ablation measures. All shaping is deterministic in the
// parameters, so repeat runs are byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/kernel_desc.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

/// One workload for a whole multi-GPU system: a single VA space worth of
/// allocations plus one kernel per GPU (kernels[g] launches on GPU g).
struct MultiGpuWorkload {
  std::string name;
  std::vector<AllocSpec> allocs;
  std::vector<KernelDesc> kernels;

  std::uint64_t total_alloc_bytes() const noexcept {
    std::uint64_t n = 0;
    for (const auto& a : allocs) n += a.bytes;
    return n;
  }
};

struct PeerShareParams {
  std::uint32_t num_gpus = 2;
  std::uint64_t private_kb_per_gpu = 512;  // per-GPU read+write slice
  std::uint64_t shared_kb = 256;           // region every GPU reads
  std::uint32_t sweeps = 1;      // full passes (re-fault pressure when > 1)
  std::uint32_t warps_per_block = 4;

  // Producer-consumer rotation (MGMark's pipelined sharing pattern): on
  // sweep s, GPU g works slice (g + s) mod num_gpus instead of its own,
  // so every sweep boundary hands each slice to the next GPU — the
  // peer-migrate vs. evict-to-host decision on bulk data.
  bool rotate_private = false;
};

/// Build the partitioned-private + shared-halo workload described above.
MultiGpuWorkload make_peer_share(const PeerShareParams& params);

}  // namespace uvmsim
