#include "core/explicit_baseline.hpp"

#include <stdexcept>

#include "interconnect/pcie.hpp"

namespace uvmsim {

ExplicitResult run_explicit(const WorkloadSpec& spec,
                            const SystemConfig& config) {
  if (spec.total_alloc_bytes() > config.gpu.memory_bytes) {
    throw std::invalid_argument(
        "run_explicit: workload exceeds GPU memory; explicit management "
        "cannot oversubscribe");
  }

  ExplicitResult result;
  const PcieLink link(config.pcie);

  // Stage every input buffer up front; copy outputs back at the end. Both
  // directions move the full allocation in one DMA operation each, as a
  // cudaMemcpy port would.
  for (const auto& alloc : spec.allocs) {
    const std::uint64_t bytes = ceil_div(alloc.bytes, kPageSize) * kPageSize;
    if (alloc.init.pattern != HostInit::Pattern::kNone) {
      result.transfer_ns += link.transfer_time(bytes);
    }
    // Output arrays (written by the kernel) come back afterwards; treat
    // every allocation as copied back once, the common conservative port.
    result.transfer_ns += link.transfer_time(bytes);
    result.bytes_staged += bytes;
  }

  // Kernel compute: all data resident, so only arithmetic and HBM access
  // time remain. Groups across warps overlap; charge the average serial
  // share per concurrently-active warp, as System does for resident work.
  const KernelDesc& kernel = spec.kernel;
  const std::uint64_t warps = kernel.num_warps();
  SimTime compute = 0;
  for (std::uint32_t g = 0; g < kernel.num_groups(); ++g) {
    compute += kernel.compute_ns(g) + config.gpu.resident_access_ns *
                                          kernel.accesses_of(g).size();
  }
  const std::uint64_t concurrent =
      std::min<std::uint64_t>(std::max<std::uint64_t>(warps, 1),
                              static_cast<std::uint64_t>(config.gpu.num_sms) *
                                  config.gpu.max_blocks_per_sm * 2);
  result.kernel_ns = compute / concurrent;
  result.total_ns = result.transfer_ns + result.kernel_ns;
  return result;
}

}  // namespace uvmsim
