#include "analysis/summary.hpp"

#include <string_view>

namespace uvmsim {

SmStatsRow sm_stats(const BatchLog& log, std::uint32_t num_sms) {
  RunningStats stats;
  for (const auto& rec : log) {
    stats.add(static_cast<double>(rec.counters.raw_faults) /
              static_cast<double>(num_sms));
  }
  SmStatsRow row;
  row.avg = stats.mean();
  row.stddev = stats.stddev();
  row.min = stats.min();
  row.max = stats.max();
  row.batches = stats.count();
  return row;
}

VaBlockStatsRow vablock_stats(const BatchLog& log) {
  RunningStats per_batch;
  RunningStats per_block;
  for (const auto& rec : log) {
    per_batch.add(rec.counters.vablocks_touched);
    for (const auto& [block, faults] : rec.vablock_faults) {
      per_block.add(faults);
    }
  }
  VaBlockStatsRow row;
  row.vablocks_per_batch = per_batch.mean();
  row.faults_per_vablock = per_block.mean();
  row.stddev = per_block.stddev();
  row.min = per_block.count()
                ? static_cast<std::uint32_t>(per_block.min())
                : 0;
  row.max = per_block.count()
                ? static_cast<std::uint32_t>(per_block.max())
                : 0;
  return row;
}

LinearFit cost_vs_migration_fit(const BatchLog& log) {
  std::vector<double> kb;
  std::vector<double> us;
  kb.reserve(log.size());
  us.reserve(log.size());
  for (const auto& rec : log) {
    kb.push_back(static_cast<double>(rec.counters.bytes_h2d) / 1024.0);
    us.push_back(static_cast<double>(rec.duration_ns()) / 1000.0);
  }
  return linear_fit(kb, us);
}

std::vector<double> extract(
    const BatchLog& log,
    const std::function<double(const BatchRecord&)>& f) {
  std::vector<double> out;
  out.reserve(log.size());
  for (const auto& rec : log) out.push_back(f(rec));
  return out;
}

std::vector<PhaseDistribution> phase_distributions(const BatchLog& log) {
  std::vector<PhaseDistribution> rows;
  std::vector<double> samples;
  samples.reserve(log.size());
  for_each_batch_phase([&](const BatchField& field, auto get) {
    PhaseDistribution row;
    row.name = field.metric;
    row.name.remove_prefix(std::string_view("phase.").size());
    row.name.remove_suffix(std::string_view("_ns").size());
    samples.clear();
    for (const auto& rec : log) {
      const SimTime v = get(rec);
      row.total_ns += v;
      if (v > row.max_ns) row.max_ns = v;
      samples.push_back(static_cast<double>(v));
    }
    if (!samples.empty()) {
      row.mean_ns = static_cast<double>(row.total_ns) /
                    static_cast<double>(samples.size());
      row.p50_ns = percentile(samples, 0.50);
      row.p95_ns = percentile(samples, 0.95);
      row.p99_ns = percentile(samples, 0.99);
    }
    rows.push_back(row);
  });
  return rows;
}

}  // namespace uvmsim
