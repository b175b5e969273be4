// uvmsim benchmark: paper-scale workloads run as a closed loop of whole
// simulations, timed on the host.
//
// End-to-end numbers come only from untraced calls to the public entry
// points System::run and MultiClientSystem::run. Per-layer host time comes
// from a separate traced replay (replay.hpp) that times, from these files,
// each call the benchmark makes into workloads / gpu / uvm / core.
// Simulated totals are read from RunResult and the BatchLog; they repeat
// exactly for a seed and double as the identity check a simulator-only
// speed change must pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/multi_client.hpp"
#include "core/system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact simulated totals of one run (summed over clients for tenants).
struct SimTotals {
  std::uint64_t kernel_sim_ns = 0;
  std::uint64_t batch_sim_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t faults = 0;      // raw fault-buffer records
  std::uint64_t duplicates = 0;
  std::uint64_t replays = 0;
  std::uint64_t raw_faults = 0;  // records the driver fetched
  std::uint64_t unique_faults = 0;
  std::uint64_t pages_migrated = 0;
  std::uint64_t pages_prefetched = 0;
  std::uint64_t prefetch_sim_ns = 0;
  std::uint64_t evictions = 0;
  std::uint64_t eviction_sim_ns = 0;
  std::uint64_t pages_unmapped = 0;
  std::uint64_t unmap_sim_ns = 0;
  std::uint64_t dma_pages_mapped = 0;
  std::uint64_t dma_map_sim_ns = 0;
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  std::uint64_t transfer_sim_ns = 0;
  std::uint64_t tenant_makespan_sim_ns = 0;  // tenants only
  std::uint64_t tenant_batches = 0;          // tenants only

  bool operator==(const SimTotals&) const = default;
};

/// Simulated totals of a run: its BatchLog plus RunResult aggregates.
SimTotals totals_of(const uvmsim::RunResult& run, std::uint64_t events);
SimTotals totals_of(const uvmsim::MultiClientResult& result,
                    std::uint64_t events);

// ---- Correctness checks: each returns its failures (empty = pass) -------

/// The run serviced faults, and every migrated page moved exactly one
/// 4 KiB page host-to-device.
std::vector<std::string> check_run(const uvmsim::RunResult& run);
/// Every tenant completed, and each client's run passes check_run.
std::vector<std::string> check_tenants(const uvmsim::MultiClientResult& result);
/// `got` equals `expected` in every simulated total; `what` names the pair.
std::vector<std::string> check_same(const SimTotals& expected,
                                    const SimTotals& got,
                                    const std::string& what);

// ---- Workloads ------------------------------------------------------------

enum class Scale { kPaper, kSmoke };

struct Workload {
  uvmsim::SystemConfig config;  // config.seed is the workload seed
  // Single-GPU workloads: builds the spec System::run executes.
  std::function<uvmsim::WorkloadSpec()> build;
  // tenants-16: builds one spec per tenant for MultiClientSystem::run.
  std::function<std::vector<uvmsim::WorkloadSpec>()> build_roster;
  std::vector<uvmsim::TenantConfig> tenants;
  uvmsim::TenantSchedConfig sched;

  bool multi_tenant() const { return static_cast<bool>(build_roster); }
};

const std::vector<std::string>& workload_names();

/// The named workload with every input derived from `seed`. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       Scale scale);

// ---- The closed loop --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kPaper;
};

struct Report {
  std::uint64_t attempted = 0;  // whole simulations run
  std::uint64_t failed = 0;     // threw or failed a correctness check
  std::uint64_t input_bytes = 0;  // managed allocations of one simulation
  std::vector<std::string> errors;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced

  bool correct() const { return failed == 0 && attempted > 0; }
};

/// Runs the workload back to back for `seconds` (at least once) and
/// reports end-to-end metrics, or per-layer metrics when `trace` is set.
Report run_benchmark(const Options& options);

/// One line: {"correct","attempted","failed","metrics"}.
std::string to_json(const Report& report);

}  // namespace perfbench
