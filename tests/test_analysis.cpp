#include <gtest/gtest.h>

#include "analysis/ascii_plot.hpp"
#include "analysis/summary.hpp"
#include "analysis/table.hpp"
#include "core/system.hpp"

namespace uvmsim {
namespace {

BatchRecord make_record(std::uint32_t raw, std::uint32_t unique,
                        std::uint64_t bytes, SimTime dur) {
  BatchRecord rec;
  rec.counters.raw_faults = raw;
  rec.counters.unique_faults = unique;
  rec.counters.bytes_h2d = bytes;
  rec.start_ns = 0;
  rec.end_ns = dur;
  rec.phases.transfer_ns = dur / 4;
  return rec;
}

TEST(Summary, SmStatsDividesByNumSms) {
  BatchLog log;
  log.push_back(make_record(256, 200, 0, 1));
  log.push_back(make_record(128, 100, 0, 1));
  const auto row = sm_stats(log, 80);
  EXPECT_NEAR(row.avg, (256.0 / 80 + 128.0 / 80) / 2, 1e-12);
  EXPECT_NEAR(row.max, 3.2, 1e-12);
  EXPECT_NEAR(row.min, 1.6, 1e-12);
  EXPECT_EQ(row.batches, 2u);
}

TEST(Summary, VaBlockStatsAggregatePairs) {
  BatchLog log;
  BatchRecord a = make_record(10, 10, 0, 1);
  a.counters.vablocks_touched = 2;
  a.vablock_faults = {{0, 4}, {1, 6}};
  BatchRecord b = make_record(10, 10, 0, 1);
  b.counters.vablocks_touched = 1;
  b.vablock_faults = {{5, 10}};
  log.push_back(a);
  log.push_back(b);
  const auto row = vablock_stats(log);
  EXPECT_NEAR(row.vablocks_per_batch, 1.5, 1e-12);
  EXPECT_NEAR(row.faults_per_vablock, (4 + 6 + 10) / 3.0, 1e-12);
  EXPECT_EQ(row.min, 4u);
  EXPECT_EQ(row.max, 10u);
}

TEST(Summary, CostVsMigrationFitRecoversLinearModel) {
  BatchLog log;
  for (std::uint64_t kb = 1; kb <= 100; ++kb) {
    // duration = 2 us per KB + 50 us intercept
    log.push_back(make_record(1, 1, kb * 1024, kb * 2000 + 50000));
  }
  const auto fit = cost_vs_migration_fit(log);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);      // us per KB
  EXPECT_NEAR(fit.intercept, 50.0, 1e-6);  // us
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Summary, ExtractPullsPerBatchScalars) {
  BatchLog log;
  log.push_back(make_record(7, 7, 0, 100));
  log.push_back(make_record(9, 9, 0, 200));
  const auto xs = extract(log, [](const BatchRecord& r) {
    return static_cast<double>(r.counters.raw_faults);
  });
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_DOUBLE_EQ(xs[0], 7.0);
  EXPECT_DOUBLE_EQ(xs[1], 9.0);
}

TEST(Summary, PhaseTotalsSum) {
  BatchLog log;
  log.push_back(make_record(1, 1, 0, 400));
  log.push_back(make_record(1, 1, 0, 800));
  const BatchTotals sum = totals(log);
  EXPECT_EQ(sum.transfer_ns, 100u + 200u);
}

TEST(Summary, TotalsSumFaultCounters) {
  BatchLog log;
  BatchRecord rec = make_record(10, 6, 0, 1);
  rec.counters.dup_same_utlb = 3;
  rec.counters.dup_cross_utlb = 1;
  log.push_back(rec);
  log.push_back(rec);
  const BatchTotals sum = totals(log);
  EXPECT_EQ(sum.raw_faults, 20u);
  EXPECT_EQ(sum.unique_faults, 12u);
  EXPECT_EQ(sum.dup_same_utlb, 6u);
  EXPECT_EQ(sum.dup_cross_utlb, 2u);
}

TEST(Summary, BatchTimeSumsDurationsWhilePhaseSumIsTheWork) {
  // Parallel workers service a batch's VABlocks side by side, so the
  // phase timers add up to more than the batch took; serial servicing
  // runs one phase after another, and the two sums agree.
  const auto run_with = [](DriverParallelismConfig parallelism) {
    SystemConfig cfg = presets::scaled_titan_v(256);
    cfg.driver.parallelism = parallelism;
    System system(cfg);
    return system.run(make_random(16ULL << 20, 7));
  };
  const RunResult parallel = run_with({ServicingPolicy::kPerVaBlock, 4});
  const BatchTotals par = totals(parallel.log);
  EXPECT_EQ(parallel.batch_time_ns, par.batch_time_ns);
  EXPECT_LT(par.batch_time_ns, par.phase_sum());

  const RunResult serial = run_with({ServicingPolicy::kSerial, 1});
  const BatchTotals ser = totals(serial.log);
  EXPECT_EQ(serial.batch_time_ns, ser.batch_time_ns);
  EXPECT_EQ(ser.batch_time_ns, ser.phase_sum());
}

TEST(BatchRecord, FractionHelpers) {
  BatchRecord rec;
  rec.start_ns = 0;
  rec.end_ns = 1000;
  rec.phases.transfer_ns = 250;
  rec.phases.unmap_ns = 100;
  rec.phases.dma_map_ns = 50;
  EXPECT_DOUBLE_EQ(rec.transfer_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(rec.unmap_fraction(), 0.10);
  EXPECT_DOUBLE_EQ(rec.dma_fraction(), 0.05);
  BatchRecord zero;
  EXPECT_DOUBLE_EQ(zero.transfer_fraction(), 0.0);
}

TEST(TablePrinter, AlignsColumnsAndRendersAllRows) {
  TablePrinter table({"name", "value"});
  table.add_row({"alpha", "1.25"});
  table.add_row({"beta-very-long", "30000"});
  const std::string out = table.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta-very-long"), std::string::npos);
  EXPECT_NE(out.find("30000"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(TablePrinter, ShortRowsArePadded) {
  TablePrinter table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NE(table.render().find("only"), std::string::npos);
}

TEST(Formatting, Helpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_us(1500), "1.50");
  EXPECT_EQ(fmt_pct(0.256), "25.6%");
}

TEST(ScatterPlot, RendersPointsAndAxes) {
  ScatterPlot plot("x", "y", 40, 10);
  for (int i = 0; i < 100; ++i) plot.add(i, i * i, i % 3);
  const std::string out = plot.render();
  EXPECT_NE(out.find('y'), std::string::npos);
  EXPECT_NE(out.find('+'), std::string::npos);  // axis corner
  EXPECT_GT(out.size(), 400u);
  EXPECT_EQ(plot.size(), 100u);
}

TEST(ScatterPlot, EmptyPlotIsPlaceholder) {
  ScatterPlot plot("x", "y");
  EXPECT_NE(plot.render().find("no data"), std::string::npos);
}

TEST(ScatterPlot, LogScalesHandleWideRanges) {
  ScatterPlot plot("x", "y", 40, 10);
  plot.set_log_x(true);
  plot.set_log_y(true);
  plot.add(1, 1);
  plot.add(1e6, 1e9);
  plot.add(0.0, 5.0);  // log of 0 clamps rather than crashing
  const std::string out = plot.render();
  EXPECT_NE(out.find("(log)"), std::string::npos);
}

TEST(ScatterPlot, SinglePointDoesNotDivideByZero) {
  ScatterPlot plot("x", "y", 20, 5);
  plot.add(5.0, 7.0);
  EXPECT_FALSE(plot.render().empty());
}

}  // namespace
}  // namespace uvmsim
