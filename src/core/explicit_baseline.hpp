// Explicit direct management baseline (cudaMalloc + cudaMemcpy style).
//
// Figure 1's comparison point: the programmer stages every buffer to the
// GPU before launch and copies results back afterwards. No faults, no
// driver batches — just bulk copy-engine transfers plus kernel compute.
#pragma once

#include <cstdint>

#include "core/system.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

struct ExplicitResult {
  SimTime total_ns = 0;       // H2D staging + kernel + D2H results
  SimTime transfer_ns = 0;
  SimTime kernel_ns = 0;
  std::uint64_t bytes_staged = 0;
};

/// Simulate the spec under explicit management with the given hardware.
/// Requires the workload to fit in GPU memory (as the paper's Fig 1
/// explicit baselines do).
ExplicitResult run_explicit(const WorkloadSpec& spec,
                            const SystemConfig& config);

}  // namespace uvmsim
