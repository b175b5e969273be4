// The benchmark's own tests: every workload at smoke size, the metric names
// it must print, and the correctness checks firing on corrupted results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

using namespace uvmsim;

// Every metric the benchmark is specified to report.
const std::vector<std::string> kEndToEnd = {"run_s", "setup_s",
                                            "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "workloads.build_s", "gpu.generate_s", "gpu.generate_calls",
    "gpu.classify_calls", "gpu.bulk_probe_calls", "gpu.fault_buffer_s",
    "gpu.replay_s", "uvm.managed_alloc_s", "uvm.handle_batch_s",
    "uvm.batches", "uvm.handle_batch_us_p50", "uvm.handle_batch_us_p99",
    "core.loop_self_s", "trace.overhead_ratio", "faults_per_s",
    "core.kernel_sim_ns",
    "core.batch_sim_ns", "core.events", "gpu.faults", "gpu.duplicates",
    "gpu.replays", "uvm.unique_faults", "uvm.dedup_keep_ratio",
    "uvm.pages_prefetched", "uvm.prefetch_ratio", "uvm.prefetch_sim_ns",
    "uvm.evictions", "uvm.eviction_sim_ns", "hostos.pages_unmapped",
    "hostos.unmap_sim_ns", "hostos.dma_pages_mapped", "hostos.dma_map_sim_ns",
    "interconnect.bytes_h2d", "interconnect.bytes_d2h",
    "interconnect.transfer_sim_ns", "core.tenant_makespan_sim_ns",
    "uvm.tenant_batches"};

Report smoke_run(const std::string& workload, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = 3;
  o.seconds = 0;  // one simulation
  o.trace = trace;
  o.scale = Scale::kSmoke;
  return run_benchmark(o);
}

double metric(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return 0;
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, UntracedRunPrintsEveryEndToEndMetric) {
  const Report r = smoke_run(GetParam(), false);
  EXPECT_TRUE(r.correct()) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(r.attempted, 1u);
  const std::string json = to_json(r);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  for (const auto& name : kEndToEnd) {
    EXPECT_NE(json.find("\"" + name + "\": {\"value\": "), std::string::npos)
        << name;
    EXPECT_GT(metric(r, name), 0) << name;
  }
  EXPECT_EQ(r.metrics.size(), kEndToEnd.size());
}

TEST_P(EveryWorkload, TracedRunPrintsEveryPerLayerMetric) {
  const Report r = smoke_run(GetParam(), true);
  EXPECT_TRUE(r.correct()) << (r.errors.empty() ? "" : r.errors.front());
  const std::string json = to_json(r);
  for (const auto& name : kPerLayer) {
    EXPECT_NE(json.find("\"" + name + "\": {\"value\": "), std::string::npos)
        << name;
  }
  EXPECT_GT(metric(r, "gpu.faults"), 0);
  EXPECT_GT(metric(r, "uvm.batches"), 0);
  if (GetParam() != "tenants-16") {
    EXPECT_GT(metric(r, "gpu.generate_s"), 0);
    EXPECT_GT(metric(r, "uvm.handle_batch_s"), 0);
    EXPECT_GT(metric(r, "gpu.classify_calls"), 0);
    // Layer times plus the loop's self time make up the traced loop.
    const double parts =
        metric(r, "gpu.generate_s") + metric(r, "gpu.fault_buffer_s") +
        metric(r, "gpu.replay_s") + metric(r, "uvm.managed_alloc_s") +
        metric(r, "uvm.handle_batch_s") + metric(r, "core.loop_self_s");
    EXPECT_NEAR(parts, metric(r, "trace.loop_s"),
                1e-9 * metric(r, "trace.loop_s"));
  } else {
    EXPECT_GT(metric(r, "core.tenant_makespan_sim_ns"), 0);
    EXPECT_EQ(metric(r, "uvm.tenant_batches"), metric(r, "uvm.batches"));
  }
}

INSTANTIATE_TEST_SUITE_P(Smoke, EveryWorkload,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(make_workload("sgemm", 1, Scale::kSmoke), std::invalid_argument);
}

TEST(Workloads, SeedDrivesTheInputs) {
  for (const std::string name : {"random-6x", "tenants-16"}) {
    const Workload a = make_workload(name, 1, Scale::kSmoke);
    const Workload b = make_workload(name, 2, Scale::kSmoke);
    EXPECT_EQ(a.config.seed, 1u);
    EXPECT_EQ(b.config.seed, 2u);
    const auto kernel_sim_ns = [&](const Workload& w) {
      if (w.multi_tenant()) {
        MultiClientSystem multi(w.config, w.tenants, w.sched);
        return totals_of(multi.run(w.build_roster()), 0).kernel_sim_ns;
      }
      System system(w.config);
      return system.run(w.build()).kernel_time_ns;
    };
    EXPECT_NE(kernel_sim_ns(a), kernel_sim_ns(b)) << name;
  }
}

// ---- The checks fire on corrupted results ------------------------------------

struct SmokeRun {
  Workload w = make_workload("gauss-seidel-4x", 5, Scale::kSmoke);
  WorkloadSpec spec = w.build();
  RunResult result;
  std::uint64_t events = 0;

  SmokeRun() {
    System system(w.config);
    result = system.run(spec);
    events = system.engine_stats().executed;
  }
};

TEST(Checks, MigratedBytesMustMatchMigratedPages) {
  SmokeRun s;
  EXPECT_TRUE(check_run(s.result).empty());
  s.result.bytes_h2d += kPageSize;
  const auto errors = check_run(s.result);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("bytes_h2d"), std::string::npos);
}

TEST(Checks, AnEmptyRunFails) {
  EXPECT_FALSE(check_run(RunResult{}).empty());
}

TEST(Checks, RepeatsMustMatchExactly) {
  SmokeRun s;
  const SimTotals expected = totals_of(s.result, s.events);
  EXPECT_TRUE(check_same(expected, totals_of(SmokeRun{}.result, s.events),
                         "repeat")
                  .empty());
  SimTotals corrupted = expected;
  corrupted.eviction_sim_ns += 1;
  const auto errors = check_same(expected, corrupted, "repeat");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("uvm.eviction_sim_ns"), std::string::npos);
}

TEST(Checks, TracedReplayMustAgreeWithTheUntracedRun) {
  SmokeRun s;
  const SimTotals expected = totals_of(s.result, s.events);
  ReplayResult replay = traced_replay(s.w.config, s.spec);
  EXPECT_TRUE(
      check_same(expected, totals_of(replay.run, replay.events), "replay")
          .empty());
  replay.run.kernel_time_ns += 1;
  replay.events += 1;
  EXPECT_EQ(
      check_same(expected, totals_of(replay.run, replay.events), "replay")
          .size(),
      2u);
}

TEST(Checks, EveryTenantMustComplete) {
  const Workload w = make_workload("tenants-16", 5, Scale::kSmoke);
  MultiClientSystem multi(w.config, w.tenants, w.sched);
  MultiClientResult result = multi.run(w.build_roster());
  EXPECT_TRUE(check_tenants(result).empty());
  result.per_tenant[7].completion_ns = 0;
  const auto errors = check_tenants(result);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("tenant 7"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
