// GPU hardware parameters.
//
// Defaults model the paper's Titan V (Volta, 80 SMs, 12 GB HBM2) with the
// fault-path constraints the paper reverse-engineers in Section 3:
//   * adjacent SMs share a µTLB, and each µTLB holds at most 56
//     outstanding faults (Fig 3);
//   * an additional per-SM fault-rate throttle ("far fault" mechanism,
//     ref [39]) limits how many new faults an SM contributes per replay
//     window — this is why post-replay batches are small (<< 56) and why
//     full-application batches mix a few faults from nearly every SM
//     (Table 2);
//   * prescriptive prefetch instructions bypass the scoreboard and both
//     limits (Fig 5).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace uvmsim {

struct GpuConfig {
  std::uint32_t num_sms = 80;
  std::uint32_t sms_per_utlb = 2;           // adjacent SMs share a µTLB
  std::uint32_t utlb_outstanding_cap = 56;  // max outstanding faults / µTLB

  // Far-fault throttle: a token bucket per SM. Full at kernel launch (so a
  // lone warp can fill its µTLB to the 56-entry cap in the first batch),
  // refilled by a small amount at each replay (so steady-state batches see
  // only a few new faults per SM: ~6 * 80 SMs ~= the ~500 unique faults
  // per window the paper reports in Section 4.2).
  std::uint32_t sm_token_capacity = 56;
  std::uint32_t sm_tokens_per_replay = 8;

  std::uint32_t fault_buffer_entries = 4096;
  std::uint32_t max_blocks_per_sm = 8;

  std::uint64_t memory_bytes = 12ULL * 1024 * 1024 * 1024;  // HBM2

  // Fault arrival pacing into the fault buffer (Fig 4: faults from one
  // window arrive in rapid succession). Within one warp, consecutive
  // faults are a few tens of ns apart; across warps, block-scheduling and
  // compute skew de-synchronize fault onset by several microseconds.
  SimTime fault_arrival_gap_ns = 30;
  SimTime fault_arrival_jitter_ns = 20;
  SimTime warp_phase_spread_ns = 160000;

  // Probability that a thread touching a page already outstanding in its
  // own µTLB emits a duplicate fault record (type-1 duplicates, §4.2).
  double dup_same_utlb_prob = 0.35;

  // Per-access HBM service time once data is resident; folded into the
  // kernel compute term.
  SimTime resident_access_ns = 8;
  // Remote (DMA-mapped) accesses — cudaMemAdvise preferred-location-host
  // pages — fault nothing and migrate nothing, but every warp-level
  // request crosses the interconnect. The round trip is ~1.2 us; with a
  // handful of requests in flight the pipelined throughput cost per
  // request is what bounds a kernel.
  SimTime remote_access_ns = 1200;
  SimTime remote_request_pipelined_ns = 300;

  std::uint32_t num_utlbs() const noexcept {
    return (num_sms + sms_per_utlb - 1) / sms_per_utlb;
  }
  std::uint32_t utlb_of_sm(std::uint32_t sm) const noexcept {
    return sm / sms_per_utlb;
  }
};

}  // namespace uvmsim
