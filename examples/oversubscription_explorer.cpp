// Oversubscription explorer: sweep a stream workload across GPU memory
// sizes (in-core through 200% oversubscription) and report how eviction
// reshapes the driver workload — the Section 5.1 experiment as a tool.
//
//   $ ./examples/oversubscription_explorer
#include <cstdio>

#include "analysis/summary.hpp"
#include "analysis/table.hpp"
#include "core/system.hpp"
#include "workloads/workload.hpp"

int main() {
  using namespace uvmsim;

  // Working set: 3 x 16 MB arrays, two sweeps.
  const std::uint64_t elements = 2 << 20;
  const double working_set_mb = 3.0 * elements * 8 / (1 << 20);

  std::printf("stream triad, working set %.0f MB, two grid sweeps\n\n",
              working_set_mb);

  TablePrinter table({"GPU mem(MB)", "subscription", "kernel(ms)", "batches",
                      "evictions", "bytes D2H(MB)", "evict time share"});
  for (const std::uint64_t mb : {96, 64, 48, 36, 28, 24}) {
    SystemConfig cfg = presets::scaled_titan_v(mb);
    System system(cfg);
    const auto result = system.run(make_stream_triad(elements, 2));
    const BatchTotals phases = totals(result.log);
    const double evict_share =
        result.batch_time_ns
            ? static_cast<double>(phases.eviction_ns) /
                  static_cast<double>(result.batch_time_ns)
            : 0.0;
    table.add_row(
        {std::to_string(mb),
         fmt(working_set_mb / static_cast<double>(mb) * 100.0, 0) + "%",
         fmt(result.kernel_time_ns / 1e6, 2), std::to_string(result.log.size()),
         std::to_string(result.evictions),
         fmt(static_cast<double>(result.bytes_d2h) / (1 << 20), 1),
         fmt_pct(evict_share)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("reading the table: once the working set exceeds GPU memory, "
              "eviction writeback (bytes D2H) and the eviction share of "
              "batch time climb steeply — the paper's out-of-core cost "
              "cliff (Fig 1, Section 5.1).\n");
  return 0;
}
