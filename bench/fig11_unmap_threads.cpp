// Figure 11: HPGMG with single-threaded vs multithreaded (OpenMP) host
// initialization. Multithreading roughly halves performance by inflating
// the unmap_mapping_range cost on the GPU fault path (per-core TLB
// shootdowns for every VABlock the host touched from many threads).
#include "bench_util.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

RunResult run_hpgmg(std::uint32_t host_threads) {
  HpgmgParams p;
  p.fine_elements_log2 = 21;
  p.levels = 4;
  p.vcycles = 1;
  p.host_threads = host_threads;
  p.interleaved_init = host_threads > 1;
  SystemConfig cfg = no_prefetch(presets::scaled_titan_v(512));
  return run_once(make_hpgmg(p), cfg);
}

double mean_unmap_fraction(const BatchLog& log) {
  RunningStats stats;
  for (const auto& rec : log) {
    if (rec.counters.unmap_calls > 0) stats.add(rec.unmap_fraction());
  }
  return stats.mean();
}

}  // namespace

int main() {
  print_header("Figure 11: HPGMG host-threading vs unmap cost",
               "default OpenMP threading roughly doubles runtime vs a "
               "single host thread; the gap is unmap_mapping_range (TLB "
               "shootdown) time on the fault path");

  const auto single = run_hpgmg(1);
  const auto omp = run_hpgmg(32);

  const BatchTotals single_phases = totals(single.log);
  const BatchTotals omp_phases = totals(omp.log);

  TablePrinter table({"config", "kernel(ms)", "batches", "unmap total(ms)",
                      "mean unmap frac (unmap batches)"});
  table.add_row({"1 host thread", fmt(single.kernel_time_ns / 1e6, 2),
                 std::to_string(single.log.size()),
                 fmt(single_phases.unmap_ns / 1e6, 2),
                 fmt_pct(mean_unmap_fraction(single.log))});
  table.add_row({"32 host threads (OMP)", fmt(omp.kernel_time_ns / 1e6, 2),
                 std::to_string(omp.log.size()),
                 fmt(omp_phases.unmap_ns / 1e6, 2),
                 fmt_pct(mean_unmap_fraction(omp.log))});
  std::printf("%s\n", table.render().c_str());

  ScatterPlot plot("batch id", "unmap fraction of batch (%)", 72, 16);
  for (const auto& rec : omp.log) {
    plot.add(rec.id, rec.unmap_fraction() * 100.0, 4);
  }
  for (const auto& rec : single.log) {
    plot.add(rec.id, rec.unmap_fraction() * 100.0, 0);
  }
  std::printf("unmap share per batch ('.' 1 thread, '*' 32 threads):\n%s\n",
              plot.render().c_str());

  const double slowdown = static_cast<double>(omp.kernel_time_ns) /
                          static_cast<double>(single.kernel_time_ns);
  std::printf("multithreaded-init slowdown: %.2fx (paper: ~2x)\n\n",
              slowdown);

  shape_check(slowdown >= 1.4,
              "multithreaded host init substantially slows the GPU fault "
              "path (paper: ~2x)");
  shape_check(omp_phases.unmap_ns > 2 * single_phases.unmap_ns,
              "the slowdown is concentrated in unmap_mapping_range time");
  shape_check(mean_unmap_fraction(omp.log) >
                  mean_unmap_fraction(single.log),
              "unmap consumes a larger share of each affected batch under "
              "OMP init");
  return 0;
}
