// Ablation: access-counter-driven migration vs fault-only servicing
// (§3's second GMMU notification channel; Figs 12-15 oversubscription
// regime).
//
// Fault-only servicing with the PIN thrashing mitigation (PR 2) is a
// one-way door: once a thrashing block is pinned to a remote (DMA)
// mapping, every future access pays the interconnect round trip forever,
// because replayable faults stop arriving for remote-mapped pages. The
// access-counter channel is the way back: the GMMU counts remote accesses
// per region and notifies the driver when a region crosses the threshold
// register, and the counter servicer promotes the hot region to GPU
// memory (lifting the thrash pin). The payoff lands on the *relaunch*:
// each workload runs twice against the same System (an iterative
// application re-entering its kernel), and the counter-assisted second
// launch starts with its hot regions already promoted, while the
// fault-only second launch pays the remote round trip for every pinned
// page again.
#include <string>

#include "analysis/log_io.hpp"
#include "bench_util.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

SystemConfig base_config() {
  // 8 MB GPU, prefetch off: the thrashing-ablation testbed. Thrashing
  // detection + PIN is on in both modes so the only delta is the counter
  // channel.
  SystemConfig cfg = no_prefetch(presets::scaled_titan_v(8));
  cfg.driver.thrash.enabled = true;
  cfg.driver.thrash.mitigation = ThrashMitigation::kPin;
  // Long-lived pins: the one-way door at its starkest. Without the
  // counter channel a pinned block stays remote across both launches.
  cfg.driver.thrash.pin_lapse_ns = 200'000'000;
  return cfg;
}

SystemConfig counter_config() {
  SystemConfig cfg = base_config();
  auto& ac = cfg.driver.access_counters;
  ac.enabled = true;
  ac.granularity_pages = 16;  // one 64 KB big page per region
  ac.threshold = 64;          // promote after 64 remote touches
  return cfg;
}

/// Two launches of the same kernel against one System: the iterative-
/// application shape the counter channel exists for.
struct IterativeRun {
  RunResult first;
  RunResult second;
};

IterativeRun run_twice(const WorkloadSpec& spec, const SystemConfig& cfg) {
  System system(cfg);
  IterativeRun out;
  out.first = system.run(spec);
  RunOptions reuse;
  reuse.reuse_allocations = true;
  out.second = system.run(spec, reuse);
  return out;
}

std::string serialize_log(const BatchLog& log) {
  std::string out;
  for (const auto& rec : log) {
    out += serialize_batch(rec);
    out += '\n';
  }
  return out;
}

std::string serialize_run(const IterativeRun& run) {
  return serialize_log(run.first.log) + "|" + serialize_log(run.second.log);
}

std::uint64_t counter_activity(const RunResult& r) {
  const BatchTotals logged = totals(r.log);
  return r.counter_notifications + logged.ctr_pages_promoted +
         logged.ctr_unpins;
}

}  // namespace

int main() {
  print_header("Ablation: counter-driven migration vs fault-only servicing",
               "under oversubscription, fault-only servicing strands "
               "thrash-pinned pages on remote mappings; access-counter "
               "feedback promotes hot regions back to GPU memory and "
               "recovers relaunch time for iterative workloads");

  struct Workload {
    std::string label;
    WorkloadSpec spec;
  };
  std::vector<Workload> workloads;
  // 16 MB touched uniformly at random from an 8 MB GPU (2x oversub).
  workloads.push_back({"random 16MB/8MB", make_random(16ULL << 20, 0x5eed)});
  {
    GemmParams p;
    p.n = 1024;  // 12 MB of matrices against the same 8 MB GPU
    workloads.push_back({"sgemm n=1024", make_gemm(p)});
  }

  TablePrinter table({"workload", "mode", "launch", "kernel(ms)", "remote",
                      "promoted", "unpins", "evictions", "h2d(MB)"});
  bool counters_active = false;
  bool won_relaunch = false;
  bool deterministic = true;
  for (const auto& w : workloads) {
    const IterativeRun fault_only = run_twice(w.spec, base_config());
    const IterativeRun assisted = run_twice(w.spec, counter_config());
    const struct {
      const char* mode;
      const char* launch;
      const RunResult* r;
    } rows[] = {{"fault-only", "1", &fault_only.first},
                {"fault-only", "2", &fault_only.second},
                {"counter-assisted", "1", &assisted.first},
                {"counter-assisted", "2", &assisted.second}};
    for (const auto& row : rows) {
      const auto& r = *row.r;
      const BatchTotals logged = totals(r.log);
      table.add_row({w.label, row.mode, row.launch,
                     fmt(r.kernel_time_ns / 1e6, 1),
                     std::to_string(r.remote_accesses),
                     std::to_string(logged.ctr_pages_promoted),
                     std::to_string(logged.ctr_unpins),
                     std::to_string(r.evictions),
                     fmt(static_cast<double>(r.bytes_h2d) / (1 << 20), 1)});
    }
    const BatchTotals assisted_log = totals(assisted.first.log);
    counters_active |=
        assisted_log.ctr_pages_promoted > 0 && assisted_log.ctr_unpins > 0;
    won_relaunch |=
        assisted.second.kernel_time_ns < fault_only.second.kernel_time_ns;
    // The channel is a simulation: repeating the exact run pair must
    // reproduce the exact batch logs.
    deterministic &= serialize_run(run_twice(w.spec, counter_config())) ==
                     serialize_run(assisted);
    shape_check(counter_activity(fault_only.first) == 0 &&
                    counter_activity(fault_only.second) == 0,
                w.label + ": fault-only runs have zero counter activity");
  }
  std::printf("\n%s\n", table.render().c_str());

  shape_check(counters_active,
              "counter servicing promoted pages and lifted thrash pins on "
              "at least one workload");
  shape_check(won_relaunch,
              "counter-assisted relaunch beats fault-only relaunch on at "
              "least one oversubscribed workload");
  shape_check(deterministic,
              "counter-assisted batch logs are identical across repeated "
              "run pairs");
  return 0;
}
