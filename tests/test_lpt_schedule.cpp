// Unit tests for the shared LPT scheduler (uvm/lpt_schedule), plus the
// cross-check that the analysis::parallelism what-if estimator and the
// live servicing model agree on the same batch log — the property the
// extraction exists to guarantee.
#include "uvm/lpt_schedule.hpp"

#include <gtest/gtest.h>

#include "analysis/parallelism.hpp"
#include "test_util.hpp"

namespace uvmsim {
namespace {

using testutil::small_config;

TEST(LptSchedule, EmptyJobsYieldZeroMakespan) {
  const auto a = lpt_assign({}, 4);
  EXPECT_EQ(a.makespan, 0u);
  EXPECT_EQ(a.load.size(), 4u);
  for (const auto load : a.load) EXPECT_EQ(load, 0u);
  EXPECT_TRUE(a.worker_of.empty());
  EXPECT_EQ(lpt_makespan({}, 1), 0u);
}

TEST(LptSchedule, OneWorkerIsSerialSum) {
  const std::vector<SimTime> jobs{70, 30, 50, 10};
  const auto a = lpt_assign(jobs, 1);
  EXPECT_EQ(a.makespan, 160u);
  for (const auto worker : a.worker_of) EXPECT_EQ(worker, 0u);
}

TEST(LptSchedule, ZeroWorkersClampToOne) {
  EXPECT_EQ(lpt_makespan({40, 20}, 0), 60u);
}

TEST(LptSchedule, WorkersAtLeastJobsGiveMaxJob) {
  const std::vector<SimTime> jobs{70, 30, 50};
  EXPECT_EQ(lpt_makespan(jobs, 3), 70u);
  EXPECT_EQ(lpt_makespan(jobs, 8), 70u);  // surplus workers stay idle
}

TEST(LptSchedule, LptBeatsNaiveOrderOnClassicInstance) {
  // {5,5,4,4,3,3} on 2 workers: LPT packs to a perfect 12/12 split.
  EXPECT_EQ(lpt_makespan({5, 5, 4, 4, 3, 3}, 2), 12u);
}

TEST(LptSchedule, TieBreakingIsDeterministic) {
  // Equal-length jobs: stable sort + lowest-index worker on load ties
  // makes the full assignment reproducible call after call.
  const std::vector<SimTime> jobs{10, 10, 10, 10, 10, 10};
  const auto first = lpt_assign(jobs, 3);
  for (int i = 0; i < 10; ++i) {
    const auto again = lpt_assign(jobs, 3);
    EXPECT_EQ(again.worker_of, first.worker_of);
    EXPECT_EQ(again.load, first.load);
    EXPECT_EQ(again.makespan, first.makespan);
  }
  // Submission order is preserved among equals: job 0 lands on worker 0,
  // job 1 on worker 1, job 2 on worker 2, then round again.
  EXPECT_EQ(first.worker_of,
            (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(first.makespan, 20u);
}

TEST(LptSchedule, AssignmentLoadsAreConsistent) {
  const std::vector<SimTime> jobs{900, 50, 25, 25, 300, 300};
  const auto a = lpt_assign(jobs, 3);
  std::vector<SimTime> recomputed(3, 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    recomputed[a.worker_of[i]] += jobs[i];
  }
  EXPECT_EQ(recomputed, a.load);
  SimTime max_load = 0;
  for (const auto load : a.load) max_load = std::max(max_load, load);
  EXPECT_EQ(a.makespan, max_load);
}

TEST(LptSchedule, SplitByShareChargesRemainderNowhere) {
  // 1000 ns over shares 3:1 -> 750 + 250; zero counts produce no job.
  const auto jobs = split_by_share(1000, {3, 0, 1});
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0], 750u);
  EXPECT_EQ(jobs[1], 250u);
  EXPECT_TRUE(split_by_share(0, {3, 1}).empty());
  EXPECT_TRUE(split_by_share(1000, {0, 0}).empty());
}

TEST(LptSchedule, ScheduleBatchSplitsSerialAndParallel) {
  // 500 ns batch with 300 ns of parallelizable work on 2 workers:
  // 200 serial + makespan(150,150) = 350.
  const auto sched = schedule_batch(500, {150, 150}, 2);
  EXPECT_EQ(sched.serial_ns, 200u);
  EXPECT_EQ(sched.parallel_work_ns, 300u);
  EXPECT_EQ(sched.makespan_ns, 150u);
  EXPECT_EQ(sched.duration_ns(), 350u);
}

TEST(LptSchedule, ScheduleBatchClampsOversizedJobs) {
  // Jobs exceeding the serial duration (possible only with inconsistent
  // inputs): the serial share clamps at zero instead of underflowing.
  const auto sched = schedule_batch(100, {150, 150}, 2);
  EXPECT_EQ(sched.serial_ns, 0u);
  EXPECT_EQ(sched.duration_ns(), 150u);
}

TEST(LptSchedule, SerialPolicyAndSingleWorkerAreIdentity) {
  BatchRecord rec;
  rec.start_ns = 100;
  rec.end_ns = 600;
  rec.vablock_service_ns.emplace_back(0, 200);
  rec.vablock_service_ns.emplace_back(1, 100);
  EXPECT_EQ(scheduled_batch_duration(
                rec, {ServicingPolicy::kSerial, 8}), 500u);
  EXPECT_EQ(scheduled_batch_duration(
                rec, {ServicingPolicy::kPerVaBlock, 1}), 500u);
  EXPECT_EQ(scheduled_batch_duration(
                rec, {ServicingPolicy::kPerSm, 1}), 500u);
}

TEST(LptSchedule, EstimatorEqualsLiveModelOnRealBatchLog) {
  // The drift-prevention property: on a serially-recorded log, the
  // analysis::parallelism estimate and the live model's per-batch
  // durations (scheduled_batch_duration — the code FaultServicer runs)
  // produce the same speedup, exactly.
  SystemConfig cfg = small_config();
  cfg.driver.prefetch_enabled = false;
  System system(cfg);
  const auto result = system.run(make_stream_triad(1 << 17));
  ASSERT_GT(result.log.size(), 4u);

  for (const auto policy :
       {ServicingPolicy::kPerVaBlock, ServicingPolicy::kPerSm}) {
    for (const unsigned workers : {1u, 2u, 4u, 8u}) {
      SimTime serial = 0, parallel = 0;
      for (const auto& rec : result.log) {
        serial += rec.duration_ns();
        parallel += scheduled_batch_duration(rec, {policy, workers});
      }
      const auto est = policy == ServicingPolicy::kPerVaBlock
                           ? estimate_vablock_parallel(result.log, workers)
                           : estimate_per_sm_parallel(result.log, workers);
      const double live = static_cast<double>(serial) /
                          static_cast<double>(parallel);
      EXPECT_NEAR(est.speedup, live, 1e-12)
          << "policy " << static_cast<int>(policy) << " workers "
          << workers;
      if (workers > 1) {
        EXPECT_GT(est.speedup, 1.0);
      }
    }
  }
}

TEST(LptSchedule, LiveRunMatchesEstimateBatchForBatch) {
  // Stronger than the aggregate: run the SAME workload once serially and
  // once with the live per-VABlock model; since only timing (not state)
  // changes within each batch, every batch's parallel duration must equal
  // schedule_batch applied to the serial batch's recorded detail — until
  // the timing feedback changes batch composition. Compare the first
  // batch, which sees identical fault input by construction.
  SystemConfig serial_cfg = small_config();
  serial_cfg.driver.prefetch_enabled = false;
  System serial_system(serial_cfg);
  const auto serial_run = serial_system.run(make_vecadd_paged());

  SystemConfig par_cfg = serial_cfg;
  par_cfg.driver.parallelism = {ServicingPolicy::kPerVaBlock, 4};
  System par_system(par_cfg);
  const auto par_run = par_system.run(make_vecadd_paged());

  ASSERT_FALSE(serial_run.log.empty());
  ASSERT_FALSE(par_run.log.empty());
  const auto& first_serial = serial_run.log.front();
  const auto& first_par = par_run.log.front();
  EXPECT_EQ(first_par.counters.raw_faults, first_serial.counters.raw_faults);
  EXPECT_EQ(first_par.duration_ns(),
            scheduled_batch_duration(first_serial,
                                     par_cfg.driver.parallelism));
}

}  // namespace
}  // namespace uvmsim
