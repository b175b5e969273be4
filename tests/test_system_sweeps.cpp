// Parameterized end-to-end sweeps: every workload under every major
// driver-policy combination must complete with its invariants intact.
// These are the regression net for the whole stack.
#include <gtest/gtest.h>

#include "core/multi_client.hpp"
#include "core/parallel_runner.hpp"
#include "core/system.hpp"
#include "test_util.hpp"
#include "workloads/tenant_mix.hpp"

namespace uvmsim {
namespace {

using testutil::small_config;

// gpu_mb leads: gtest names each case with a byte dump of this struct,
// so names cut short start with a fixed value rather than std::string's
// heap pointer, which moves from build to build.
struct SweepCase {
  std::uint64_t gpu_mb;  // sized to oversubscribe some workloads
  std::string label;
  std::function<WorkloadSpec()> build;
};

class SystemSweepTest : public ::testing::TestWithParam<
                            std::tuple<SweepCase, bool, bool>> {};

TEST_P(SystemSweepTest, CompletesWithInvariants) {
  const auto& [c, prefetch, async_ops] = GetParam();
  SystemConfig cfg = small_config(c.gpu_mb);
  cfg.driver.prefetch_enabled = prefetch;
  cfg.driver.big_page_promotion = prefetch;
  cfg.driver.async_host_ops = async_ops;

  System system(cfg);
  const auto result = system.run(c.build());

  // Every run completes, services faults, and respects GPU capacity.
  EXPECT_GT(result.total_faults, 0u);
  EXPECT_GT(result.log.size(), 0u);
  EXPECT_LE(system.driver().va_space().gpu_resident_pages() * kPageSize,
            cfg.gpu.memory_bytes);
  EXPECT_LE(result.batch_time_ns, result.kernel_time_ns);
  EXPECT_EQ(result.forced_throttle_refills, 0u);

  // Per-batch sanity: counters conserved, phases account the duration.
  for (const auto& rec : result.log) {
    EXPECT_EQ(rec.counters.raw_faults,
              rec.counters.unique_faults + rec.counters.dup_same_utlb +
                  rec.counters.dup_cross_utlb);
    EXPECT_LE(rec.counters.unique_faults, rec.counters.raw_faults);
    if (!async_ops) {
      EXPECT_EQ(rec.duration_ns(), rec.phases.sum());
    } else {
      EXPECT_LE(rec.duration_ns(), rec.phases.sum());
    }
    EXPECT_LE(rec.counters.vablocks_touched,
              std::max(1u, rec.counters.unique_faults));
  }
}

std::vector<SweepCase> sweep_cases() {
  return {
      {256, "stream_small", [] { return make_stream_triad(1 << 15); }},
      {16, "stream_oversub", [] { return make_stream_triad(1 << 20, 2); }},
      {256, "sgemm", [] {
         GemmParams p;
         p.n = 512;
         return make_gemm(p);
       }},
      {256, "fft", [] { return make_fft(1 << 16); }},
      {256, "gauss_seidel", [] {
         GaussSeidelParams p;
         p.nx = 1024;
         p.ny = 256;
         return make_gauss_seidel(p);
       }},
      {256, "hpgmg", [] {
         HpgmgParams p;
         p.fine_elements_log2 = 17;
         p.levels = 3;
         p.vcycles = 1;
         return make_hpgmg(p);
       }},
      {256, "random", [] { return make_random(64ULL << 20, 3, 4, 64, 32); }},
  };
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SystemSweepTest,
    ::testing::Combine(::testing::ValuesIn(sweep_cases()),
                       ::testing::Bool(),   // prefetch
                       ::testing::Bool()),  // async host ops
    [](const auto& info) {
      return std::get<0>(info.param).label +
             (std::get<1>(info.param) ? "_pf" : "_nopf") +
             (std::get<2>(info.param) ? "_async" : "_sync");
    });

TEST(ParallelRunner, MatchesSerialRunsWithDeterministicOrdering) {
  // The host-side thread pool runs every sweep case concurrently; each
  // System is deterministic and thread-confined, so the results must be
  // identical to serial execution, in job order.
  std::vector<RunJob> jobs;
  for (const auto& c : sweep_cases()) {
    jobs.push_back({small_config(c.gpu_mb), c.build()});
  }
  ASSERT_GE(jobs.size(), 4u);
  const auto parallel = run_parallel(jobs, 4);  // >= 4 concurrent systems

  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    System system(jobs[i].config);
    const auto serial = system.run(jobs[i].spec);
    EXPECT_EQ(parallel[i].kernel_time_ns, serial.kernel_time_ns) << i;
    EXPECT_EQ(parallel[i].batch_time_ns, serial.batch_time_ns) << i;
    EXPECT_EQ(parallel[i].total_faults, serial.total_faults) << i;
    EXPECT_EQ(parallel[i].log.size(), serial.log.size()) << i;
  }
}

TEST(ParallelRunner, PropagatesFirstExceptionByJobOrder) {
  // Job 1 oversubscribes with eviction disabled -> throws inside a worker
  // thread; the runner rethrows after draining all jobs.
  std::vector<RunJob> jobs;
  jobs.push_back({small_config(), make_stream_triad(1 << 12)});
  SystemConfig broken = small_config(16);
  broken.driver.eviction_enabled = false;
  jobs.push_back({broken, make_stream_triad(2 << 20)});
  jobs.push_back({small_config(), make_stream_triad(1 << 12)});
  EXPECT_THROW(run_parallel(jobs, 3), std::runtime_error);
}

TEST(ParallelRunner, RunTasksKeepsTaskOrderForAnyResultType) {
  // Multi-tenant simulations (not Systems) on the pool: each result comes
  // back in its task's slot and equals the serial run of the same task.
  const auto run_policy = [](TenantSchedPolicy policy) {
    TenantSchedConfig sched;
    sched.policy = policy;
    MultiClientSystem multi(small_config(16),
                            make_tenant_matrix(4, {1.0, 2.0}, 0, 1), sched);
    return multi.run(make_tenant_roster(4, TenantMix::kMixed, 7, 512));
  };
  const std::vector<TenantSchedPolicy> policies = {
      TenantSchedPolicy::kFcfs, TenantSchedPolicy::kDeficitRoundRobin,
      TenantSchedPolicy::kStride, TenantSchedPolicy::kFcfs};
  std::vector<std::function<MultiClientResult()>> tasks;
  for (const TenantSchedPolicy policy : policies) {
    tasks.push_back([&run_policy, policy] { return run_policy(policy); });
  }
  const std::vector<MultiClientResult> parallel = run_tasks(tasks, 4);

  ASSERT_EQ(parallel.size(), policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const MultiClientResult serial = run_policy(policies[i]);
    EXPECT_EQ(parallel[i].sched_policy, policies[i]) << i;
    EXPECT_EQ(parallel[i].makespan_ns, serial.makespan_ns) << i;
    EXPECT_EQ(parallel[i].worker_busy_ns, serial.worker_busy_ns) << i;
    EXPECT_EQ(parallel[i].batches_serviced, serial.batches_serviced) << i;
  }
}

class OversubRatioTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OversubRatioTest, EvictionScalesWithPressure) {
  // Working set 48 MB of stream arrays against a shrinking GPU.
  const std::uint64_t gpu_mb = GetParam();
  SystemConfig cfg = small_config(gpu_mb);
  System system(cfg);
  const auto result = system.run(make_stream_triad(2 << 20, 2));
  if (gpu_mb >= 64) {
    EXPECT_EQ(result.evictions, 0u) << "in-core run must not evict";
  } else {
    EXPECT_GT(result.evictions, 0u) << "oversubscribed run must evict";
    EXPECT_GT(result.bytes_d2h, 0u);
  }
  EXPECT_LE(system.driver().va_space().gpu_resident_pages() * kPageSize,
            cfg.gpu.memory_bytes);
}

INSTANTIATE_TEST_SUITE_P(Pressure, OversubRatioTest,
                         ::testing::Values(96, 64, 40, 32, 24));

}  // namespace
}  // namespace uvmsim
