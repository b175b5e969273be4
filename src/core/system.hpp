// Public entry point: a complete UVM system (GPU + driver + host OS +
// interconnect) that executes workloads and produces batch logs. System is
// the one-driver, one-GPU preset over core/node.hpp, whose event chain
// every node shape shares.
//
// Typical use (see examples/quickstart.cpp):
//
//   uvmsim::SystemConfig config = uvmsim::presets::scaled_titan_v(256);
//   uvmsim::System system(config);
//   auto spec = uvmsim::make_stream_triad(1 << 22);
//   uvmsim::RunResult result = system.run(spec);
//   // result.log has one BatchRecord per serviced fault batch.
#pragma once

#include <cstdint>

#include "core/node.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

struct RunOptions {
  /// Re-launch against the allocations of the previous run of the same
  /// spec (warm data, no new managed_alloc calls) — the iterative-kernel
  /// pattern. Requires a prior non-reusing run.
  bool reuse_allocations = false;
};

/// The single-GPU preset over Node: one driver, one GPU engine seeded
/// config.seed, and a fault injector seeded config.driver.inject.seed.
class System {
 public:
  explicit System(SystemConfig config);

  /// Allocate the spec's managed buffers (applying host init), launch the
  /// kernel, and run fault servicing to completion. The result holds this
  /// run's counters only.
  RunResult run(const WorkloadSpec& spec, RunOptions options = {});

  UvmDriver& driver() noexcept { return node_.driver(0); }
  const UvmDriver& driver() const noexcept { return node_.driver(0); }
  GpuEngine& gpu() noexcept { return node_.gpu(0); }
  const SystemConfig& config() const noexcept { return node_.config(); }

  const FaultInjector& injector() const noexcept { return node_.injector(0); }

  /// The GPU's access-counter unit; null when counters are disabled.
  const AccessCounterUnit* access_counters() const noexcept {
    return node_.access_counters(0);
  }

  /// The run-stream's recorded trace: empty unless SystemConfig::obs.trace
  /// was set; events accumulate across run() calls.
  const Tracer& tracer() const noexcept { return node_.tracer(0); }
  Tracer& tracer() noexcept { return node_.tracer(0); }
  /// Every run so far, read from the books (Node::metrics).
  MetricsRegistry metrics() const { return node_.metrics(); }

  /// The discrete-event engine driving run(); stats accumulate across
  /// runs (events posted/executed, idle ns skipped).
  const EventEngine& engine() const noexcept { return node_.engine(); }
  const EventEngine::Stats& engine_stats() const noexcept {
    return node_.engine().stats();
  }

 private:
  Node node_;
  PageId last_base_page_ = 0;
  bool has_run_ = false;
};

namespace presets {

/// The paper's testbed: Titan V over PCIe 3.0 x16, default driver policy.
SystemConfig titan_v();

/// Titan V fault-path constraints with GPU memory scaled down to
/// `gpu_memory_mb` so oversubscription experiments run in seconds.
SystemConfig scaled_titan_v(std::uint64_t gpu_memory_mb);

}  // namespace presets

}  // namespace uvmsim
