// Tiled GEMM C = A * B (cuBLAS-style thread-block tiling).
//
// Each thread block owns a tile x tile area of C and iterates over k
// panels, reading a row panel of A and a column panel of B per step. The
// panel reuse across blocks creates cross-µTLB duplicates; the k-loop
// over panels creates the "phases" in sgemm's batch time series (Fig 8);
// and the C-tile writes only after a full panel sweep keeps the write
// faults behind the reads (scoreboard ordering).
#include "workloads/detail.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

WorkloadSpec make_gemm(const GemmParams& params) {
  WorkloadSpec spec;
  spec.name = params.double_precision ? "dgemm" : "sgemm";
  const std::uint64_t n = params.n;
  const std::uint64_t elem = params.double_precision ? 8 : 4;
  const std::uint64_t bytes = n * n * elem;
  const HostInit init = params.host_init_threads > 1
                            ? HostInit::chunked(params.host_init_threads)
                            : HostInit::single();
  spec.allocs = {{bytes, "A", init},
                 {bytes, "B", init},
                 {bytes, "C", HostInit::none()}};
  const auto base = detail::layout_bases(spec.allocs);

  const std::uint64_t tiles = n / params.tile;  // tiles per dimension
  const std::uint64_t row_bytes = n * elem;
  const std::uint64_t span_bytes = params.tile * elem;
  const std::uint32_t wpb = params.warps_per_block;
  const std::uint32_t rows_per_warp = params.tile / wpb;

  // Per warp: `tiles` read groups of an A and a B span per row, then one
  // write group of a C span per row. When rows start on page boundaries
  // and the span size divides the page size (every benchmark size), each
  // span is one access and these sizes are exact; otherwise the arrays
  // adjust.
  const std::uint64_t warps = tiles * tiles * wpb;
  KernelBuilder kernel(spec.name, detail::layout_pages(spec.allocs));
  kernel.reserve(tiles * tiles, warps, warps * (tiles + 1),
                 warps * rows_per_warp * (2 * tiles + 1));
  for (std::uint64_t bi = 0; bi < tiles; ++bi) {
    for (std::uint64_t bj = 0; bj < tiles; ++bj) {
      for (std::uint32_t w = 0; w < wpb; ++w) {
        // k-panel loop: read this warp's slice of the A row panel and the
        // B column panel, accumulate, repeat.
        for (std::uint64_t kk = 0; kk < tiles; ++kk) {
          for (std::uint32_t r = 0; r < rows_per_warp; ++r) {
            const std::uint64_t a_row =
                bi * params.tile + w * rows_per_warp + r;
            kernel.add_span(base[0], a_row * row_bytes + kk * span_bytes,
                            span_bytes, AccessType::kRead);
            const std::uint64_t b_row =
                kk * params.tile + w * rows_per_warp + r;
            kernel.add_span(base[1], b_row * row_bytes + bj * span_bytes,
                            span_bytes, AccessType::kRead);
          }
          kernel.end_group(2000);  // tile FMAs
        }
        // Write the warp's rows of the C tile.
        for (std::uint32_t r = 0; r < rows_per_warp; ++r) {
          const std::uint64_t c_row = bi * params.tile + w * rows_per_warp + r;
          kernel.add_span(base[2], c_row * row_bytes + bj * span_bytes,
                          span_bytes, AccessType::kWrite);
        }
        kernel.end_group(300);
        kernel.end_warp();
      }
      kernel.end_block();
    }
  }
  spec.kernel = kernel.finish();
  return spec;
}

}  // namespace uvmsim
