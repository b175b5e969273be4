// Traced replay of System::run's event chain from public calls only.
//
// The replay builds the same driver, GPU engine and fault-injection
// schedule System builds, then walks the chain System::run posts on its
// event engine (launch -> GPU window -> interrupt -> one event per batch ->
// ... -> kernel completion) as a plain loop with a local clock, wrapping
// each call into uvm / gpu in a host-time span. Residency queries reach the
// driver through a counting ResidencyOracle owned by the benchmark.
//
// It covers the configurations the single-GPU workloads use: no fault
// injection, recovery or access counters. Its layer times mean something
// only when its simulated totals equal System::run's for the same config
// and spec; the benchmark checks that on every traced iteration.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Host seconds spent inside each layer's calls during one replay.
struct LayerTimes {
  double managed_alloc_s = 0;  // UvmDriver::managed_alloc
  double generate_s = 0;       // GpuEngine::generate
  double fault_buffer_s = 0;   // FaultBuffer::drain_arrived + flush_arrived
  double replay_s = 0;         // GpuEngine::on_replay
  double handle_batch_s = 0;   // UvmDriver::handle_batch
  double total_s = 0;          // the whole replay: allocation to completion

  std::uint64_t generate_calls = 0;
  std::uint64_t classify_calls = 0;    // per-page residency queries
  std::uint64_t bulk_probe_calls = 0;  // ResidencyOracle::all_gpu_resident
  std::vector<double> handle_batch_us;  // one entry per batch

  /// The replay loop's own time: total minus the timed child calls.
  double loop_self_s() const {
    return total_s - (managed_alloc_s + generate_s + fault_buffer_s +
                      replay_s + handle_batch_s);
  }
};

struct ReplayResult {
  uvmsim::RunResult run;  // the RunResult fields SimTotals reads
  std::uint64_t events = 0;
  LayerTimes times;
};

/// Replays `spec` on a fresh driver + GPU built from `config`.
ReplayResult traced_replay(const uvmsim::SystemConfig& config,
                           const uvmsim::WorkloadSpec& spec);

}  // namespace perfbench
