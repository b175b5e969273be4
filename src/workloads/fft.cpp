// cuFFT-like Stockham sweep over complex<float>, out-of-place ping-pong.
//
// Early passes pair elements half the transform apart, so one warp's reads
// land in VABlocks megabytes apart — the wide, shallow fault spread the
// paper measures for cufft (Table 3: ~25 VABlocks per batch, ~3 faults
// per VABlock).
#include "workloads/detail.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

WorkloadSpec make_fft(std::uint64_t elements, std::uint32_t elems_per_warp) {
  WorkloadSpec spec;
  spec.name = "cufft";
  constexpr std::uint64_t kElem = 8;  // complex<float>
  const std::uint64_t bytes = elements * kElem;
  spec.allocs = {{bytes, "X", HostInit::single()},
                 {bytes, "Y", HostInit::none()}};
  const auto base = detail::layout_bases(spec.allocs);

  std::uint32_t passes = 0;
  for (std::uint64_t v = 1; v < elements; v <<= 1) ++passes;

  constexpr std::uint32_t kWarpsPerBlock = 8;
  const std::uint64_t warps = ceil_div(elements, elems_per_warp);
  const std::uint64_t blocks = ceil_div(warps, kWarpsPerBlock);

  KernelBuilder kernel(spec.name, detail::layout_pages(spec.allocs));
  for (std::uint64_t b = 0; b < blocks; ++b) {
    for (std::uint32_t w = 0; w < kWarpsPerBlock; ++w) {
      const std::uint64_t warp_id = b * kWarpsPerBlock + w;
      if (warp_id >= warps) break;
      const std::uint64_t first = warp_id * elems_per_warp;
      const std::uint64_t count =
          std::min<std::uint64_t>(elems_per_warp, elements - first);

      for (std::uint32_t p = 0; p < passes; ++p) {
        // Pass p: source = X on even passes, Y on odd; read the warp's
        // span plus its butterfly partner span at stride n >> (p+1).
        const PageId src = (p % 2 == 0) ? base[0] : base[1];
        const PageId dst = (p % 2 == 0) ? base[1] : base[0];
        const std::uint64_t stride = elements >> (p + 1);

        kernel.add_span(src, first * kElem, count * kElem, AccessType::kRead);
        const std::uint64_t partner = (first + stride) % elements;
        const std::uint64_t partner_count =
            std::min(count, elements - partner);
        kernel.add_span(src, partner * kElem, partner_count * kElem,
                        AccessType::kRead);
        kernel.end_group(800);
        kernel.add_span(dst, first * kElem, count * kElem,
                        AccessType::kWrite);
        kernel.end_group(200);
      }
      kernel.end_warp();
    }
    kernel.end_block();
  }
  spec.kernel = kernel.finish();
  return spec;
}

}  // namespace uvmsim
