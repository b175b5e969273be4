// Multi-tenant arbitration ablation: FCFS vs deficit-round-robin vs
// stride on the 64-tenant acceptance scenario (mixed workloads, weights
// cycling {1,2,4}, one batch per grant). FCFS ignores weights, so its
// weight-normalized Jain index collapses; the weighted disciplines hold
// shares near the targets at (near) identical makespan — fairness here is
// a scheduling transform of the same work, not a throughput tax. The three
// policy runs are independent simulations, so they run concurrently on the
// host pool (core/parallel_runner).
#include <algorithm>
#include <functional>
#include <vector>

#include "bench_util.hpp"
#include "analysis/tenant_report.hpp"
#include "common/stats.hpp"
#include "core/multi_client.hpp"
#include "core/parallel_runner.hpp"
#include "workloads/tenant_mix.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

struct Outcome {
  const char* name = "";
  double makespan_ms = 0;
  double jain = 0;
  double max_err_pct = 0;
  double wait_p50_us = 0;
  double wait_p99_us = 0;
  double wait_max_us = 0;
};

Outcome run_policy(const char* name, TenantSchedPolicy policy) {
  SystemConfig cfg = presets::scaled_titan_v(64);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  cfg.driver.batch_size = 64;
  TenantSchedConfig sched;
  sched.policy = policy;
  sched.drr_quantum_faults = 64;
  MultiClientSystem multi(cfg, make_tenant_matrix(64, {1.0, 2.0, 4.0}, 0, 1),
                          sched);
  const auto result =
      multi.run(make_tenant_roster(64, TenantMix::kMixed, cfg.seed, 32768));
  const TenantReport report = build_tenant_report(result.per_tenant);

  Outcome o;
  o.name = name;
  o.makespan_ms = result.makespan_ns / 1e6;
  o.jain = report.jain_index;
  o.max_err_pct = report.max_abs_share_error * 100.0;
  std::vector<double> waits;
  waits.reserve(report.rows.size());
  for (const auto& row : report.rows) waits.push_back(row.mean_wait_ns);
  o.wait_p50_us = percentile(waits, 0.50) / 1e3;
  o.wait_p99_us = percentile(waits, 0.99) / 1e3;
  o.wait_max_us = report.max_wait_ns / 1e3;
  return o;
}

}  // namespace

int main() {
  print_header("Ablation: multi-tenant arbitration (FCFS vs DRR vs stride)",
               "64 tenants, mixed workloads, weights {1,2,4}: weighted "
               "disciplines hold in-window shares at the weight targets "
               "(Jain -> 1) where FCFS cannot, at comparable makespan");

  const std::vector<Outcome> outcomes =
      run_tasks(std::vector<std::function<Outcome()>>{
          [] { return run_policy("fcfs", TenantSchedPolicy::kFcfs); },
          [] {
            return run_policy("drr", TenantSchedPolicy::kDeficitRoundRobin);
          },
          [] { return run_policy("stride", TenantSchedPolicy::kStride); },
      });

  TablePrinter table({"policy", "makespan(ms)", "jain", "max_share_err%",
                      "wait p50(us)", "wait p99(us)", "wait max(us)"});
  for (const Outcome& o : outcomes) {
    table.add_row({o.name, fmt(o.makespan_ms, 2), fmt(o.jain, 4),
                   fmt(o.max_err_pct, 2), fmt(o.wait_p50_us, 2),
                   fmt(o.wait_p99_us, 2), fmt(o.wait_max_us, 2)});
  }
  std::printf("%s\n", table.render().c_str());

  const Outcome& fcfs = outcomes[0];
  const Outcome& drr = outcomes[1];
  const Outcome& stride = outcomes[2];
  shape_check(stride.jain > fcfs.jain && drr.jain > fcfs.jain,
              "weighted disciplines track the weight targets better than "
              "FCFS (higher weight-normalized Jain index)");
  shape_check(stride.jain >= 0.95 && stride.max_err_pct <= 10.0,
              "stride holds the acceptance bar: shares within 10% of "
              "weights, Jain >= 0.95");
  shape_check(stride.makespan_ms < 1.10 * fcfs.makespan_ms,
              "weighted fairness costs <10% makespan (the worker services "
              "the same batches in a different order)");
  return 0;
}
