// Section 3 microbenchmarks plus the Regular/Random synthetics of
// Tables 2 and 3.
#include "common/rng.hpp"
#include "workloads/detail.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

using detail::layout_bases;
using detail::layout_pages;

WorkloadSpec make_vecadd_paged(std::uint32_t threads,
                               std::uint32_t statements) {
  // Listing 1: each thread touches the first float of its own page, and
  // each statement s moves all threads one page stride further. One read
  // group (a and b pages, issued back-to-back before the FADD scoreboard
  // stall) then one write group (c pages) per statement.
  WorkloadSpec spec;
  spec.name = "vecadd-paged";
  const std::uint64_t pages_per_vec =
      static_cast<std::uint64_t>(threads) * statements;
  const std::uint64_t bytes = pages_per_vec * kPageSize;
  spec.allocs = {{bytes, "a", HostInit::single()},
                 {bytes, "b", HostInit::single()},
                 {bytes, "c", HostInit::none()}};
  const auto base = layout_bases(spec.allocs);

  const std::uint32_t warps = (threads + 31) / 32;
  KernelBuilder kernel(spec.name, layout_pages(spec.allocs));
  for (std::uint32_t w = 0; w < warps; ++w) {
    const std::uint32_t lanes = std::min(32u, threads - w * 32);
    for (std::uint32_t s = 0; s < statements; ++s) {
      // Thread w * 32 + lane touches page s * threads + w * 32 + lane.
      const std::uint64_t first =
          static_cast<std::uint64_t>(s) * threads + w * 32;
      for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        kernel.add_page(base[0] + first + lane, AccessType::kRead);
        kernel.add_page(base[1] + first + lane, AccessType::kRead);
      }
      kernel.end_group(500);
      for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        kernel.add_page(base[2] + first + lane, AccessType::kWrite);
      }
      kernel.end_group(200);
    }
    kernel.end_warp();
  }
  kernel.end_block();
  spec.kernel = kernel.finish();
  return spec;
}

WorkloadSpec make_vecadd_coalesced(std::uint64_t elements,
                                   std::uint32_t warps_per_block) {
  WorkloadSpec spec;
  spec.name = "vecadd-coalesced";
  const std::uint64_t bytes = elements * sizeof(float);
  spec.allocs = {{bytes, "a", HostInit::single()},
                 {bytes, "b", HostInit::single()},
                 {bytes, "c", HostInit::none()}};
  const auto base = layout_bases(spec.allocs);

  const std::uint64_t warps = ceil_div(elements, 32);
  const std::uint64_t blocks = ceil_div(warps, warps_per_block);
  // A span is 32 aligned floats, so always one page: the sizes are exact.
  KernelBuilder kernel(spec.name, layout_pages(spec.allocs));
  kernel.reserve(blocks, warps, 2 * warps, 3 * warps);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    for (std::uint32_t w = 0; w < warps_per_block; ++w) {
      const std::uint64_t warp_id = b * warps_per_block + w;
      if (warp_id >= warps) break;
      const std::uint64_t offset = warp_id * 32 * sizeof(float);
      const std::uint64_t len =
          std::min<std::uint64_t>(32, elements - warp_id * 32) *
          sizeof(float);
      kernel.add_span(base[0], offset, len, AccessType::kRead);
      kernel.add_span(base[1], offset, len, AccessType::kRead);
      kernel.end_group(300);
      kernel.add_span(base[2], offset, len, AccessType::kWrite);
      kernel.end_group(100);
      kernel.end_warp();
    }
    kernel.end_block();
  }
  spec.kernel = kernel.finish();
  return spec;
}

WorkloadSpec make_vecadd_prefetch(std::uint32_t pages_per_vector) {
  // Fig 5: prefetch.global.L2 for every page of a, b and c from a single
  // warp, then the additions run against (mostly) resident data.
  WorkloadSpec spec;
  spec.name = "vecadd-prefetch";
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(pages_per_vector) * kPageSize;
  spec.allocs = {{bytes, "a", HostInit::single()},
                 {bytes, "b", HostInit::single()},
                 {bytes, "c", HostInit::none()}};
  const auto base = layout_bases(spec.allocs);

  KernelBuilder kernel(spec.name, layout_pages(spec.allocs));
  for (std::uint32_t v = 0; v < 3; ++v) {
    for (std::uint32_t p = 0; p < pages_per_vector; ++p) {
      kernel.add_page(base[v] + p, AccessType::kPrefetch);
    }
  }
  kernel.end_group(100);

  for (std::uint32_t p = 0; p < pages_per_vector; ++p) {
    kernel.add_page(base[0] + p, AccessType::kRead);
    kernel.add_page(base[1] + p, AccessType::kRead);
    kernel.end_group(200);
    kernel.add_page(base[2] + p, AccessType::kWrite);
    kernel.end_group(100);
  }
  kernel.end_warp();
  kernel.end_block();
  spec.kernel = kernel.finish();
  return spec;
}

WorkloadSpec make_regular(std::uint64_t total_bytes,
                          std::uint32_t warps_per_block, std::uint32_t blocks,
                          std::uint32_t pages_per_group) {
  // Chunked-ownership sequential reads: warp i owns pages
  // [i*chunk, (i+1)*chunk) and walks them pages_per_group at a time. With
  // every warp's chunk in a different part of the space, each batch mixes
  // small fault counts from many VABlocks (Table 2/3 "Regular" shape).
  WorkloadSpec spec;
  spec.name = "regular";
  spec.allocs = {{total_bytes, "data", HostInit::single()}};
  const auto base = layout_bases(spec.allocs);

  const std::uint64_t pages = ceil_div(total_bytes, kPageSize);
  const std::uint64_t total_warps =
      static_cast<std::uint64_t>(warps_per_block) * blocks;
  const std::uint64_t chunk = std::max<std::uint64_t>(1, pages / total_warps);

  // Warps own whole chunks until the pages run out; at most one owns a
  // shorter tail, and the rest own nothing. The sizes are exact.
  const std::uint64_t full_warps = std::min(total_warps, pages / chunk);
  const std::uint64_t tail =
      full_warps < total_warps ? pages - full_warps * chunk : 0;
  const std::uint64_t warps = full_warps + (tail > 0 ? 1 : 0);
  KernelBuilder kernel(spec.name, layout_pages(spec.allocs));
  kernel.reserve(ceil_div(warps, warps_per_block), warps,
                 full_warps * ceil_div(chunk, pages_per_group) +
                     ceil_div(tail, pages_per_group),
                 full_warps * chunk + tail);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    for (std::uint32_t w = 0; w < warps_per_block; ++w) {
      const std::uint64_t warp_id =
          static_cast<std::uint64_t>(b) * warps_per_block + w;
      const std::uint64_t first = warp_id * chunk;
      if (first >= pages) break;
      const std::uint64_t last = std::min(pages, first + chunk);
      for (std::uint64_t p = first; p < last; p += pages_per_group) {
        for (std::uint64_t q = p;
             q < std::min<std::uint64_t>(last, p + pages_per_group); ++q) {
          kernel.add_page(base[0] + q, AccessType::kRead);
        }
        kernel.end_group(0);  // dependence-free saturating microbenchmark
      }
      kernel.end_warp();
    }
    kernel.end_block();
  }
  spec.kernel = kernel.finish();
  return spec;
}

WorkloadSpec make_random(std::uint64_t total_bytes, std::uint64_t seed,
                         std::uint32_t warps_per_block, std::uint32_t blocks,
                         std::uint32_t accesses_per_warp) {
  WorkloadSpec spec;
  spec.name = "random";
  spec.allocs = {{total_bytes, "data", HostInit::single()}};
  const auto base = layout_bases(spec.allocs);
  const std::uint64_t pages = ceil_div(total_bytes, kPageSize);

  // Two draws per group; they rarely hit the same page, so the access
  // count is exact up to those collisions.
  const std::uint64_t warps =
      static_cast<std::uint64_t>(blocks) * warps_per_block;
  const std::uint64_t groups = warps * (accesses_per_warp / 2);
  KernelBuilder kernel(spec.name, layout_pages(spec.allocs));
  kernel.reserve(blocks, warps, groups, 2 * groups);
  Xoshiro256 rng(seed);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    for (std::uint32_t w = 0; w < warps_per_block; ++w) {
      for (std::uint32_t g = 0; g < accesses_per_warp / 2; ++g) {
        kernel.add_page(base[0] + rng.uniform(pages), AccessType::kRead);
        kernel.add_page(base[0] + rng.uniform(pages), AccessType::kRead);
        kernel.end_group(0);  // dependence-free saturating microbenchmark
      }
      kernel.end_warp();
    }
    kernel.end_block();
  }
  spec.kernel = kernel.finish();
  return spec;
}

}  // namespace uvmsim
