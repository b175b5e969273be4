// Ablation: the fatal-fault recovery ladder.
//
// The same error-prone run, three ways: (1) a clean baseline, (2) the
// transient injector alone — retry exhaustion abandons service blocks,
// (3) fatal classes armed WITH the recovery ladder — exhausted copies
// escalate to channel resets instead of aborting, double-bit ECC and
// poison retire pages to host frames, and wedged buffers clear through
// the watchdog. The run pays recovery time (resets, salvage writeback,
// re-faulting) to keep every page serviceable; the table shows where
// that time goes and what it buys (aborts -> 0 on the CE path).
#include "bench_util.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

struct Row {
  std::string label;
  RunResult result;
};

SystemConfig injected(SystemConfig cfg) {
  auto& inj = cfg.driver.inject;
  inj.enabled = true;
  inj.seed = 42;
  inj.transfer_error_prob = 0.3;
  cfg.driver.retry.max_attempts = 2;
  return cfg;
}

SystemConfig with_ladder(SystemConfig cfg) {
  auto& inj = cfg.driver.inject;
  inj.ecc_double_bit_prob = 0.005;
  inj.poison_prob = 0.005;
  inj.ce_permanent_prob = 1.0;  // every exhaustion is a dead channel
  inj.wedge_prob = 0.02;
  inj.wedge_gpu_reset_frac = 0.25;
  auto& rec = cfg.driver.recovery;
  rec.enabled = true;
  rec.watchdog_stuck_wakeups = 2;
  return cfg;
}

Row run_mode(const std::string& label, const SystemConfig& cfg) {
  // 16 MB random over an 8 MB GPU: oversubscribed, eviction-heavy — the
  // regime where an abandoned block or a lost page copy would surface.
  return {label, run_once(make_random(16ULL << 20, 0x5eed), cfg)};
}

}  // namespace

int main() {
  const SystemConfig base = no_prefetch(presets::scaled_titan_v(8));
  const Row clean = run_mode("clean", base);
  const Row transient = run_mode("transient, no ladder", injected(base));
  const Row ladder = run_mode("fatal + ladder", with_ladder(injected(base)));

  print_header("Ablation: fatal-fault containment and the recovery ladder",
               "transient-only injection abandons blocks on retry "
               "exhaustion; the ladder converts those into channel resets "
               "and contains fatal faults by retiring pages, at the cost "
               "of recovery time");

  TablePrinter table({"mode", "kernel(ms)", "aborts", "cancelled",
                      "pg_retired", "ch_resets", "gpu_resets",
                      "recovery(ms)"});
  for (const Row* row : {&clean, &transient, &ladder}) {
    const auto& r = row->result;
    const BatchTotals rec = totals(r.log);
    table.add_row({row->label, fmt(r.kernel_time_ns / 1e6, 1),
                   std::to_string(rec.service_aborts),
                   std::to_string(rec.faults_cancelled),
                   std::to_string(rec.pages_retired),
                   std::to_string(rec.channel_resets),
                   std::to_string(rec.gpu_resets),
                   fmt(rec.recovery_ns / 1e6, 3)});
  }
  std::printf("%s\n", table.render().c_str());

  const BatchTotals clean_log = totals(clean.result.log);
  const BatchTotals transient_log = totals(transient.result.log);
  const BatchTotals ladder_log = totals(ladder.result.log);
  std::printf(
      "ladder run: %llu ECC + %llu poison injections -> %llu pages "
      "(%llu chunks) retired; %llu wedges cleared via watchdog "
      "(%llu stuck wakeups)\n",
      static_cast<unsigned long long>(ladder.result.injected_ecc_faults),
      static_cast<unsigned long long>(ladder.result.injected_poison_faults),
      static_cast<unsigned long long>(ladder_log.pages_retired),
      static_cast<unsigned long long>(ladder_log.chunks_retired),
      static_cast<unsigned long long>(ladder.result.injected_wedges),
      static_cast<unsigned long long>(ladder.result.watchdog_stuck_wakeups));

  std::printf("\n");
  shape_check(clean_log.service_aborts == 0 &&
                  !clean_log.any(BatchGroup::kRecovery),
              "the clean run aborts nothing and never recovers");
  shape_check(transient_log.service_aborts > 0,
              "transient-only injection abandons blocks on retry "
              "exhaustion");
  shape_check(ladder_log.service_aborts == 0,
              "the ladder turns every exhausted copy into a channel reset: "
              "no aborts");
  shape_check(ladder_log.pages_retired >=
                  ladder.result.injected_poison_faults,
              "the ladder retires at least one page per poison injection");
  return 0;
}
