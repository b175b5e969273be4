// Driver trace: the library's equivalent of the authors' instrumented
// nvidia-uvm + logging tool. Runs a workload and dumps every batch record
// with its full phase breakdown, so driver behaviour can be inspected
// batch by batch.
//
//   $ ./examples/driver_trace            # default: gauss-seidel
//   $ ./examples/driver_trace stream     # or: sgemm, hpgmg, fft, random
//   $ ./examples/driver_trace stream vablock 4   # §6 live parallel model
//   $ ./examples/driver_trace stream sm 8        # (serial|vablock|sm, K)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/table.hpp"
#include "core/system.hpp"
#include "workloads/workload.hpp"

namespace {

uvmsim::WorkloadSpec pick_workload(const char* name) {
  using namespace uvmsim;
  if (name == nullptr || std::strcmp(name, "gauss-seidel") == 0) {
    GaussSeidelParams p;
    p.nx = 1024;
    p.ny = 256;
    return make_gauss_seidel(p);
  }
  if (std::strcmp(name, "stream") == 0) return make_stream_triad(1 << 18);
  if (std::strcmp(name, "sgemm") == 0) {
    GemmParams p;
    p.n = 512;
    return make_gemm(p);
  }
  if (std::strcmp(name, "hpgmg") == 0) {
    HpgmgParams p;
    p.fine_elements_log2 = 17;
    p.levels = 3;
    p.vcycles = 1;
    return make_hpgmg(p);
  }
  if (std::strcmp(name, "fft") == 0) return make_fft(1 << 18);
  if (std::strcmp(name, "random") == 0) {
    return make_random(64ULL << 20, 0x5eed, 4, 64, 32);
  }
  std::fprintf(stderr, "unknown workload '%s', using gauss-seidel\n", name);
  GaussSeidelParams p;
  return make_gauss_seidel(p);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uvmsim;

  const auto spec = pick_workload(argc > 1 ? argv[1] : nullptr);
  SystemConfig cfg = presets::scaled_titan_v(256);
  const char* policy = argc > 2 ? argv[2] : "serial";
  if (std::strcmp(policy, "vablock") == 0) {
    cfg.driver.parallelism.policy = ServicingPolicy::kPerVaBlock;
  } else if (std::strcmp(policy, "sm") == 0) {
    cfg.driver.parallelism.policy = ServicingPolicy::kPerSm;
  } else if (std::strcmp(policy, "serial") != 0) {
    std::fprintf(stderr, "unknown policy '%s' (serial|vablock|sm)\n", policy);
    return 1;
  }
  cfg.driver.parallelism.workers =
      argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 1;

  System system(cfg);
  const auto result = system.run(spec);

  std::printf("workload %s (servicing %s, %u workers): %zu batches, "
              "kernel %.2f ms, %llu faults "
              "(%llu raw duplicates at the hardware level)\n\n",
              spec.name.c_str(), policy, cfg.driver.parallelism.workers,
              result.log.size(), result.kernel_time_ns / 1e6,
              static_cast<unsigned long long>(result.total_faults),
              static_cast<unsigned long long>(result.duplicate_emissions));

  TablePrinter table({"batch", "dur(us)", "raw", "uniq", "VABlk", "mig",
                      "pref", "evict", "unmap(us)", "dma(us)", "xfer(us)",
                      "populate(us)"});
  for (const auto& rec : result.log) {
    table.add_row({std::to_string(rec.id), fmt_us(rec.duration_ns()),
                   std::to_string(rec.counters.raw_faults),
                   std::to_string(rec.counters.unique_faults),
                   std::to_string(rec.counters.vablocks_touched),
                   std::to_string(rec.counters.pages_migrated),
                   std::to_string(rec.counters.pages_prefetched),
                   std::to_string(rec.counters.evictions),
                   fmt_us(rec.phases.unmap_ns), fmt_us(rec.phases.dma_map_ns),
                   fmt_us(rec.phases.transfer_ns),
                   fmt_us(rec.phases.populate_ns)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
