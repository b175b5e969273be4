#include "workloads/peer_share.hpp"

#include <algorithm>

#include "workloads/detail.hpp"

namespace uvmsim {

MultiGpuWorkload make_peer_share(const PeerShareParams& params) {
  MultiGpuWorkload wl;
  wl.name = "peer-share";

  const std::uint64_t private_bytes = params.private_kb_per_gpu * 1024;
  const std::uint64_t shared_bytes = params.shared_kb * 1024;
  for (std::uint32_t g = 0; g < params.num_gpus; ++g) {
    wl.allocs.push_back({private_bytes, "private." + std::to_string(g),
                         HostInit::single()});
  }
  wl.allocs.push_back({shared_bytes, "shared", HostInit::single()});
  const auto base = detail::layout_bases(wl.allocs);
  const PageId shared_base = base[params.num_gpus];

  // One warp streams 32 doubles (a quarter page) per group, like the
  // stream triad; blocks tile the slice so the access frontier moves.
  constexpr std::uint64_t kBytesPerLane = sizeof(double);
  constexpr std::uint64_t kSpan = 32 * kBytesPerLane;

  wl.kernels.reserve(params.num_gpus);
  for (std::uint32_t g = 0; g < params.num_gpus; ++g) {
    KernelBuilder kernel(wl.name + "." + std::to_string(g),
                         detail::layout_pages(wl.allocs));
    const std::uint64_t warps_priv = ceil_div(private_bytes, kSpan);
    const std::uint64_t warps_shared = ceil_div(shared_bytes, kSpan);

    for (std::uint32_t sweep = 0; sweep < params.sweeps; ++sweep) {
      // Private slice: read then write each span (the partitioned bulk).
      // With rotation the slice shifts by one GPU per sweep, so sweep
      // boundaries hand bulk data across the fabric.
      const std::uint32_t slice =
          params.rotate_private ? (g + sweep) % params.num_gpus : g;
      const std::uint64_t blocks_priv =
          ceil_div(warps_priv, params.warps_per_block);
      for (std::uint64_t b = 0; b < blocks_priv; ++b) {
        for (std::uint32_t w = 0; w < params.warps_per_block; ++w) {
          const std::uint64_t warp_id = b * params.warps_per_block + w;
          if (warp_id >= warps_priv) break;
          const std::uint64_t offset = warp_id * kSpan;
          const std::uint64_t len =
              std::min<std::uint64_t>(kSpan, private_bytes - offset);
          kernel.add_span(base[slice], offset, len, AccessType::kRead);
          kernel.end_group(250);
          kernel.add_span(base[slice], offset, len, AccessType::kWrite);
          kernel.end_group(100);
          kernel.end_warp();
        }
        kernel.end_block();
      }

      // Shared halo: every GPU reads the whole region each sweep. The
      // first GPU to fault a block owns it; the rest exercise the
      // remote-map / peer-migrate decision.
      const std::uint64_t blocks_shared =
          ceil_div(warps_shared, params.warps_per_block);
      for (std::uint64_t b = 0; b < blocks_shared; ++b) {
        for (std::uint32_t w = 0; w < params.warps_per_block; ++w) {
          const std::uint64_t warp_id = b * params.warps_per_block + w;
          if (warp_id >= warps_shared) break;
          const std::uint64_t offset = warp_id * kSpan;
          const std::uint64_t len =
              std::min<std::uint64_t>(kSpan, shared_bytes - offset);
          kernel.add_span(shared_base, offset, len, AccessType::kRead);
          kernel.end_group(200);
          kernel.end_warp();
        }
        kernel.end_block();
      }
    }
    wl.kernels.push_back(kernel.finish());
  }
  return wl;
}

}  // namespace uvmsim
