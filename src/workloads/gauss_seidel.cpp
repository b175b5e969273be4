// Gauss-Seidel 5-point stencil sweeps over a 2D double grid (+ fixed rhs).
//
// Dense row-order sweeps: the fault frontier is a narrow band (Table 3:
// ~2.3 VABlocks/batch, ~22 faults/VABlock), and repeated sweeps re-walk
// the grid front to back — the access pattern that makes LRU eviction
// degrade to evict-earliest under oversubscription (Fig 16c).
#include "workloads/detail.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

WorkloadSpec make_gauss_seidel(const GaussSeidelParams& params) {
  WorkloadSpec spec;
  spec.name = "gauss-seidel";
  const std::uint64_t row_bytes = static_cast<std::uint64_t>(params.nx) * 8;
  const std::uint64_t bytes = row_bytes * params.ny;
  const HostInit init = params.host_init_threads > 1
                            ? HostInit::chunked(params.host_init_threads)
                            : HostInit::single();
  spec.allocs = {{bytes, "u", init}, {bytes, "rhs", init}};
  const auto base = detail::layout_bases(spec.allocs);

  const std::uint64_t pages_per_row = ceil_div(row_bytes, kPageSize);
  const std::uint64_t blocks_per_sweep =
      ceil_div(params.ny, params.rows_per_block);

  // Per row and page-wide segment: a read group of the rows above, at and
  // below plus rhs, then a write group; the first and last rows lack a
  // neighbour. When rows are whole pages (every benchmark size), each span
  // is one access and these sizes are exact.
  const std::uint64_t ny = params.ny;
  const std::uint64_t warps = params.sweeps * ny;
  const std::uint64_t column_accesses = ny == 0 ? 0 : 5 * ny - 2;
  KernelBuilder kernel(spec.name, detail::layout_pages(spec.allocs));
  kernel.reserve(params.sweeps * blocks_per_sweep, warps,
                 2 * warps * pages_per_row,
                 params.sweeps * pages_per_row * column_accesses);
  for (std::uint32_t sweep = 0; sweep < params.sweeps; ++sweep) {
    for (std::uint64_t blk = 0; blk < blocks_per_sweep; ++blk) {
      const std::uint64_t row0 = blk * params.rows_per_block;
      for (std::uint32_t r = 0; r < params.rows_per_block; ++r) {
        const std::uint64_t row = row0 + r;
        if (row >= params.ny) break;
        // Walk the row one page-wide segment at a time: read the segment
        // of rows row-1, row, row+1 plus rhs, then update in place.
        for (std::uint64_t seg = 0; seg < pages_per_row; ++seg) {
          const std::uint64_t off = seg * kPageSize;
          const std::uint64_t len =
              std::min<std::uint64_t>(kPageSize, row_bytes - off);
          if (row > 0) {
            kernel.add_span(base[0], (row - 1) * row_bytes + off, len,
                            AccessType::kRead);
          }
          kernel.add_span(base[0], row * row_bytes + off, len,
                          AccessType::kRead);
          if (row + 1 < params.ny) {
            kernel.add_span(base[0], (row + 1) * row_bytes + off, len,
                            AccessType::kRead);
          }
          kernel.add_span(base[1], row * row_bytes + off, len,
                          AccessType::kRead);
          kernel.end_group(900);
          kernel.add_span(base[0], row * row_bytes + off, len,
                          AccessType::kWrite);
          kernel.end_group(200);
        }
        kernel.end_warp();
      }
      kernel.end_block();
    }
  }
  spec.kernel = kernel.finish();
  return spec;
}

}  // namespace uvmsim
