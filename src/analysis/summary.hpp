// Batch-log analytics: the reductions behind the paper's tables/figures.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "uvm/batch.hpp"

namespace uvmsim {

/// Table 2 row: per-batch faults averaged over all SMs (x_b = raw/num_sms),
/// with stddev/min/max across batches.
struct SmStatsRow {
  double avg = 0, stddev = 0, min = 0, max = 0;
  std::size_t batches = 0;
};
SmStatsRow sm_stats(const BatchLog& log, std::uint32_t num_sms);

/// Table 3 row: mean VABlocks per batch, and faults-per-VABlock stats over
/// every (batch, VABlock) pair.
struct VaBlockStatsRow {
  double vablocks_per_batch = 0;
  double faults_per_vablock = 0;
  double stddev = 0;
  std::uint32_t min = 0, max = 0;
};
VaBlockStatsRow vablock_stats(const BatchLog& log);

/// Fig 6: least-squares fit of batch duration (us) vs data migrated (KB).
LinearFit cost_vs_migration_fit(const BatchLog& log);

/// Pull one scalar per batch (for time series / scatter extraction).
std::vector<double> extract(const BatchLog& log,
                            const std::function<double(const BatchRecord&)>& f);

/// Per-phase distribution across batches (the `analyze --phases` view):
/// one row per BatchPhaseTimes field, in declaration order, with the
/// phase's total, mean, and exact sorted-sample percentiles of the
/// per-batch values. Empty log yields one all-zero row per phase.
struct PhaseDistribution {
  std::string_view name;  // the phase's metric name without "phase." and
                          // "_ns": fetch, dma_map, ...
  SimTime total_ns = 0;
  double mean_ns = 0;
  double p50_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;
  SimTime max_ns = 0;
};
std::vector<PhaseDistribution> phase_distributions(const BatchLog& log);

}  // namespace uvmsim
