// BabelStream-style triad: a[i] = b[i] + scalar * c[i] over doubles.
//
// Coalesced streaming through three arrays: the in-flight block frontier
// covers only a few VABlocks at a time (Table 3: ~4 VABlocks/batch with
// high faults-per-VABlock), and consecutive warps in a block share pages,
// producing same-µTLB duplicates (Fig 8).
#include "workloads/detail.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

WorkloadSpec make_stream_triad(std::uint64_t elements,
                               std::uint32_t iterations) {
  WorkloadSpec spec;
  spec.name = "stream";
  const std::uint64_t bytes = elements * sizeof(double);
  spec.allocs = {{bytes, "a", HostInit::single()},
                 {bytes, "b", HostInit::single()},
                 {bytes, "c", HostInit::single()}};
  const auto base = detail::layout_bases(spec.allocs);

  constexpr std::uint32_t kWarpsPerBlock = 8;
  const std::uint64_t warps = ceil_div(elements, 32);
  const std::uint64_t blocks = ceil_div(warps, kWarpsPerBlock);

  // BabelStream repeats the triad kernel: each iteration is a fresh grid
  // sweep over the arrays (front to back), which is what drives LRU
  // re-page-in under oversubscription.
  // Each warp reads one span of b and c and writes one of a; a span is
  // 32 aligned doubles, so always one page: the sizes are exact.
  const std::uint64_t all_warps = warps * iterations;
  KernelBuilder kernel(spec.name, detail::layout_pages(spec.allocs));
  kernel.reserve(blocks * iterations, all_warps, 2 * all_warps,
                 3 * all_warps);
  for (std::uint32_t iter = 0; iter < iterations; ++iter) {
    for (std::uint64_t b = 0; b < blocks; ++b) {
      for (std::uint32_t w = 0; w < kWarpsPerBlock; ++w) {
        const std::uint64_t warp_id = b * kWarpsPerBlock + w;
        if (warp_id >= warps) break;
        const std::uint64_t offset = warp_id * 32 * sizeof(double);
        const std::uint64_t len =
            std::min<std::uint64_t>(32, elements - warp_id * 32) *
            sizeof(double);
        kernel.add_span(base[1], offset, len, AccessType::kRead);
        kernel.add_span(base[2], offset, len, AccessType::kRead);
        kernel.end_group(250);
        kernel.add_span(base[0], offset, len, AccessType::kWrite);
        kernel.end_group(100);
        kernel.end_warp();
      }
      kernel.end_block();
    }
  }
  spec.kernel = kernel.finish();
  return spec;
}

}  // namespace uvmsim
