#include "analysis/invariants.hpp"

#include <cstdint>

namespace uvmsim {

namespace {

void expect_equal(std::vector<std::string>& out, const char* what,
                  std::uint64_t logged, std::uint64_t counted) {
  if (logged != counted) {
    out.push_back(std::string(what) + ": log " + std::to_string(logged) +
                  " != " + std::to_string(counted));
  }
}

}  // namespace

std::vector<std::string> run_violations(const UvmDriver& driver,
                                        const RunResult& result) {
  std::vector<std::string> out;
  for (const BatchRecord& rec : result.log) {
    const BatchCounters& c = rec.counters;
    const std::string batch = "batch " + std::to_string(rec.id);
    if (c.raw_faults != c.unique_faults + c.dup_same_utlb + c.dup_cross_utlb) {
      out.push_back(batch + ": raw faults != unique + duplicates");
    }
    if (rec.duration_ns() > rec.phases.sum()) {
      out.push_back(batch + ": duration exceeds its phase sum");
    }
  }
  const BatchTotals run = totals(result.log);
  expect_equal(out, "injected transfer errors", run.transfer_errors,
               result.injected_transfer_errors);
  expect_equal(out, "injected DMA-map errors", run.dma_map_errors,
               result.injected_dma_errors);
  expect_equal(out, "buffer drops", run.buffer_dropped,
               result.faults_dropped_full);

  const VaSpace& space = driver.va_space();
  const std::uint32_t gpus = driver.config().multi_gpu.num_gpus;
  std::vector<std::uint64_t> resident(gpus, 0);
  for (VaBlockId b = 0; b < space.block_count(); ++b) {
    const VaBlockState& block = space.block(b);
    resident.at(block.owner_gpu()) += block.gpu_resident_count();
    const auto orphaned =
        block.populated() & ~(block.gpu_resident() | block.host_data());
    if (orphaned.any()) {
      out.push_back("block " + std::to_string(b) + " lost " +
                    std::to_string(orphaned.count()) + " populated pages");
    }
    if ((block.retired() & block.gpu_resident()).any()) {
      out.push_back("block " + std::to_string(b) + " maps retired pages");
    }
  }
  std::uint64_t retired_chunks = 0;
  for (std::uint32_t g = 0; g < gpus; ++g) {
    const GpuMemory& memory = driver.gpu_memory(g);
    retired_chunks += memory.retired_chunks();
    if (memory.chunks_in_use() > memory.total_chunks() ||
        resident[g] > memory.total_chunks() * kPagesPerVaBlock) {
      out.push_back("GPU " + std::to_string(g) + " holds " +
                    std::to_string(resident[g]) +
                    " resident pages, more than its memory");
    }
  }

  const BatchTotals lifetime = totals(driver.log());
  const RecoveryManager& recovery = driver.recovery();
  expect_equal(out, "cancelled faults", lifetime.faults_cancelled,
               recovery.faults_cancelled());
  expect_equal(out, "retired pages", lifetime.pages_retired,
               recovery.pages_retired());
  expect_equal(out, "retired chunks", lifetime.chunks_retired,
               recovery.chunks_retired());
  expect_equal(out, "blacklisted chunks", lifetime.chunks_retired,
               retired_chunks);
  expect_equal(out, "channel resets", lifetime.channel_resets,
               recovery.channel_resets());
  expect_equal(out, "GPU resets", lifetime.gpu_resets, recovery.gpu_resets());
  return out;
}

}  // namespace uvmsim
