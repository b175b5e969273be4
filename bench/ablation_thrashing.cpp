// Ablation: thrashing detection and graceful degradation (§5.1, Figs
// 12/15 regime; mitigation modeled on nvidia-uvm's perf_thrashing).
//
// A sparse uniform-random workload over a 2x-oversubscribed GPU is the
// pathological eviction ping-pong: every fault batch migrates whole
// VABlocks that are evicted again before their next (sparse) access.
// Detection plus the PIN mitigation replaces the ping-pong with remote
// (DMA) access for the thrashing blocks; THROTTLE keeps migrating but
// shields thrashing blocks from eviction and widens the service window.
#include "bench_util.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

struct Row {
  std::string label;
  RunResult result;
};

Row run_mode(const std::string& label, ThrashMitigation mitigation,
             bool detect) {
  SystemConfig cfg = no_prefetch(presets::scaled_titan_v(8));
  cfg.driver.thrash.enabled = detect;
  cfg.driver.thrash.mitigation = mitigation;
  // 16 MB of pages accessed uniformly at random from an 8 MB GPU.
  return {label, run_once(make_random(16ULL << 20, 0x5eed), cfg)};
}

}  // namespace

int main() {
  print_header("Ablation: thrashing detection and graceful degradation",
               "under sparse oversubscribed access, eviction ping-pong "
               "dominates; pin+remote-map removes it (fewer evictions, "
               "less data moved, lower end-to-end time)");

  const Row off = run_mode("off", ThrashMitigation::kNone, false);
  const Row detect = run_mode("detect only", ThrashMitigation::kNone, true);
  const Row pin = run_mode("pin", ThrashMitigation::kPin, true);
  const Row throttle =
      run_mode("throttle", ThrashMitigation::kThrottle, true);

  TablePrinter table({"mitigation", "kernel(ms)", "batches", "evictions",
                      "h2d(MB)", "remote", "pins", "throttles"});
  for (const Row* row : {&off, &detect, &pin, &throttle}) {
    const auto& r = row->result;
    const BatchTotals logged = totals(r.log);
    table.add_row({row->label, fmt(r.kernel_time_ns / 1e6, 1),
                   std::to_string(r.log.size()),
                   std::to_string(r.evictions),
                   fmt(static_cast<double>(r.bytes_h2d) / (1 << 20), 1),
                   std::to_string(r.remote_accesses),
                   std::to_string(logged.thrash_pins),
                   std::to_string(logged.thrash_throttles)});
  }
  std::printf("%s\n", table.render().c_str());

  const BatchTotals robust = totals(pin.result.log);
  std::printf("pin run: %llu thrash pins, %.3f ms backoff, %.3f ms "
              "throttle delay\n\n",
              static_cast<unsigned long long>(robust.thrash_pins),
              static_cast<double>(robust.backoff_ns) / 1e6,
              static_cast<double>(robust.throttle_ns) / 1e6);

  shape_check(off.result.evictions >
                  10 * (16ULL << 20) / (2ULL << 20),
              "the unmitigated run ping-pongs (evictions far exceed the "
              "working-set block count)");
  shape_check(detect.result.kernel_time_ns == off.result.kernel_time_ns &&
                  detect.result.evictions == off.result.evictions,
              "detection alone (mitigation none) changes nothing");
  shape_check(robust.thrash_pins > 0,
              "the detector classified blocks as thrashing and pinned them");
  shape_check(pin.result.evictions * 5 < off.result.evictions,
              "pin mitigation cuts evictions by >5x");
  shape_check(pin.result.bytes_h2d * 5 < off.result.bytes_h2d,
              "pin mitigation cuts migrated data by >5x");
  shape_check(pin.result.kernel_time_ns < off.result.kernel_time_ns,
              "pin mitigation reduces end-to-end time");
  shape_check(totals(throttle.result.log).thrash_throttles > 0,
              "throttle mitigation widens the service window for "
              "thrashing blocks");
  return 0;
}
