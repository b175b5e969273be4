// Host-side parallel experiment runner.
//
// Each simulation (System, MultiClientSystem, MultiGpuSystem) is
// single-threaded and deterministic, but sweeps and benches run MANY
// independent simulations (one per sweep point / roster entry / policy).
// This small std::thread pool runs those instances concurrently and
// returns results in task order, so a sweep's output is byte-identical to
// its serial equivalent regardless of thread interleaving. It is the one
// place the simulator uses host threads.
//
// This parallelizes the *host* across simulations — distinct from
// DriverConfig::parallelism, which models parallelism *inside* one
// simulated driver (uvm/lpt_schedule.hpp) and changes simulated time, not
// host time.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/system.hpp"

namespace uvmsim {

/// One experiment: a fresh System(config) executing spec cold.
struct RunJob {
  SystemConfig config;
  WorkloadSpec spec;
};

/// Call body(i) for every i in [0, count) on up to `threads` worker
/// threads (0 = one per hardware thread, at most one per index). Each
/// index runs exactly once. If any call throws, the first exception (by
/// index) is rethrown after all workers have drained.
void run_indexed(std::size_t count,
                 const std::function<void(std::size_t)>& body,
                 unsigned threads = 0);

/// Run `tasks` on the pool; results[i] is tasks[i]'s return value. R must
/// be default-constructible (each slot is filled in place by its task).
template <typename R>
std::vector<R> run_tasks(const std::vector<std::function<R()>>& tasks,
                         unsigned threads = 0) {
  std::vector<R> results(tasks.size());
  run_indexed(
      tasks.size(), [&](std::size_t i) { results[i] = tasks[i](); }, threads);
  return results;
}

/// Convenience: one System per job, run concurrently, results in job
/// order. Equivalent to { System s(job.config); return s.run(job.spec); }
/// for each job serially — every System is confined to one worker thread.
std::vector<RunResult> run_parallel(const std::vector<RunJob>& jobs,
                                    unsigned threads = 0);

}  // namespace uvmsim
