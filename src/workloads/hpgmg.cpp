// HPGMG-FV proxy: geometric multigrid V-cycles over a level hierarchy.
//
// Reproduces the two properties the paper leans on:
//   * a level hierarchy whose per-level footprints shrink by ~8x, swept
//     repeatedly in V-cycles (setup phase, then segmented fault activity —
//     Fig 17);
//   * boxed OpenMP host initialization, which interleaves CPU threads
//     across pages of every VABlock and inflates the unmap/TLB-shootdown
//     cost on the GPU fault path (Fig 11).
#include "workloads/detail.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {
namespace {

/// One smoothing (or transfer) sweep over a level array: blocks of
/// contiguous 16-page segments, one warp per 4-page slice, stencil reads
/// with a neighbour page plus rhs, write in place.
void append_sweep(KernelBuilder& kernel, PageId u_base, PageId r_base,
                  std::uint64_t level_pages, bool write_rhs_level) {
  constexpr std::uint64_t kSegPages = 16;
  constexpr std::uint32_t kWarps = 4;
  const std::uint64_t segs = ceil_div(level_pages, kSegPages);
  for (std::uint64_t s = 0; s < segs; ++s) {
    for (std::uint32_t w = 0; w < kWarps; ++w) {
      const std::uint64_t first = s * kSegPages + w * (kSegPages / kWarps);
      if (first >= level_pages) break;
      const std::uint64_t last = std::min(
          level_pages, first + kSegPages / kWarps);
      for (std::uint64_t p = first; p < last; ++p) {
        kernel.add_page(u_base + p, AccessType::kRead);
        if (p + 1 < level_pages) {
          kernel.add_page(u_base + p + 1, AccessType::kRead);
        }
        kernel.add_page(r_base + p, AccessType::kRead);
        kernel.end_group(1200);
        kernel.add_page((write_rhs_level ? r_base : u_base) + p,
                        AccessType::kWrite);
        kernel.end_group(300);
      }
      kernel.end_warp();
    }
    kernel.end_block();
  }
}

}  // namespace

WorkloadSpec make_hpgmg(const HpgmgParams& params) {
  WorkloadSpec spec;
  spec.name = "hpgmg";

  const HostInit init =
      params.host_threads > 1
          ? (params.interleaved_init
                 ? HostInit::interleaved(params.host_threads)
                 : HostInit::chunked(params.host_threads))
          : HostInit::single();

  // Two arrays per level (solution u and residual/rhs r); level i is 8x
  // smaller than level i-1 (3D coarsening).
  std::vector<std::uint64_t> level_pages(params.levels);
  std::uint64_t elems = 1ULL << params.fine_elements_log2;
  for (std::uint32_t l = 0; l < params.levels; ++l) {
    level_pages[l] = std::max<std::uint64_t>(1, ceil_div(elems * 8, kPageSize));
    spec.allocs.push_back(
        {level_pages[l] * kPageSize, "u" + std::to_string(l), init});
    spec.allocs.push_back(
        {level_pages[l] * kPageSize, "r" + std::to_string(l), init});
    elems = std::max<std::uint64_t>(1, elems / 8);
  }
  const auto base = detail::layout_bases(spec.allocs);
  const auto u_base = [&](std::uint32_t l) { return base[2 * l]; };
  const auto r_base = [&](std::uint32_t l) { return base[2 * l + 1]; };

  KernelBuilder kernel(spec.name, detail::layout_pages(spec.allocs));
  for (std::uint32_t cycle = 0; cycle < params.vcycles; ++cycle) {
    // Down-sweep: smooth each level, then restrict to the next coarser.
    for (std::uint32_t l = 0; l + 1 < params.levels; ++l) {
      for (std::uint32_t s = 0; s < params.smooth_passes; ++s) {
        append_sweep(kernel, u_base(l), r_base(l), level_pages[l],
                     /*write_rhs_level=*/false);
      }
      // Restriction: read level l, write level l+1's rhs.
      append_sweep(kernel, u_base(l), r_base(l + 1),
                   level_pages[l + 1], /*write_rhs_level=*/true);
    }
    // Coarse solve + up-sweep with post-smoothing.
    for (std::uint32_t l = params.levels; l-- > 0;) {
      for (std::uint32_t s = 0; s < params.smooth_passes; ++s) {
        append_sweep(kernel, u_base(l), r_base(l), level_pages[l],
                     /*write_rhs_level=*/false);
      }
    }
  }
  spec.kernel = kernel.finish();
  return spec;
}

}  // namespace uvmsim
