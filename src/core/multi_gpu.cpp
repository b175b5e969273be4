#include "core/multi_gpu.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace uvmsim {

MultiGpuSystem::MultiGpuSystem(SystemConfig config)
    : config_(std::move(config)),
      counters_(config_.driver.access_counters.enabled
                    ? std::make_unique<AccessCounterUnit>(
                          config_.driver.access_counters.granularity_pages,
                          config_.driver.access_counters.threshold,
                          config_.driver.access_counters.buffer_entries)
                    : nullptr),
      driver_(config_.driver, config_.gpu.memory_bytes, config_.gpu.num_sms,
              config_.pcie, nullptr,
              Obs{config_.obs.trace ? &tracer_ : nullptr,
                  config_.obs.metrics ? &metrics_ : nullptr}) {
  const std::uint32_t n = config_.driver.multi_gpu.num_gpus;
  gpus_.reserve(n);
  views_.resize(n);
  const Obs obs{config_.obs.trace ? &tracer_ : nullptr,
                config_.obs.metrics ? &metrics_ : nullptr};
  for (std::uint32_t g = 0; g < n; ++g) {
    gpus_.push_back(std::make_unique<GpuEngine>(
        config_.gpu, config_.seed + 0x9E37 * (g + 1)));
    gpus_.back()->set_obs(obs);
    if (counters_) gpus_.back()->set_access_counters(counters_.get());
    views_[g].driver = &driver_;
    views_[g].gpu = g;
  }
  if (counters_) driver_.set_access_counters(counters_.get());
  if (config_.obs.trace) {
    tracer_.set_track_name(tracks::kDriver, "uvm driver");
    tracer_.set_track_name(tracks::kGpu, "gpu");
  }
}

MultiGpuResult MultiGpuSystem::run(const MultiGpuWorkload& workload) {
  const std::size_t n = gpus_.size();
  if (workload.kernels.size() != n) {
    throw std::invalid_argument(
        "MultiGpuSystem::run: one kernel per GPU required (got " +
        std::to_string(workload.kernels.size()) + " kernels for " +
        std::to_string(n) + " GPUs)");
  }

  MultiGpuResult result;
  result.per_gpu_kernel_ns.assign(n, 0);

  EventEngine engine;

  std::vector<SimTime> compute_ns(n, 0);
  std::vector<SimTime> done_at(n, 0);
  std::vector<bool> done(n, false);

  const auto generate_window = [&](std::size_t g) {
    const auto gen = gpus_[g]->generate(engine.now(), views_[g]);
    compute_ns[g] += gen.compute_ns +
                     gen.remote_requests *
                         config_.gpu.remote_request_pipelined_ns;
  };

  // Shared VA space: allocate once, then launch every GPU's kernel at the
  // same base and run the first generation window for each at t = 0.
  const PageId base = driver_.va_space().total_pages();
  for (const auto& alloc : workload.allocs) {
    driver_.managed_alloc(alloc.bytes, alloc.name, alloc.init, alloc.advise);
  }
  for (std::size_t g = 0; g < n; ++g) {
    gpus_[g]->launch(workload.kernels[g], base);
  }
  for (std::size_t g = 0; g < n; ++g) generate_window(g);

  const std::uint64_t max_batches = 4'000'000;
  std::uint64_t batches = 0;

  for (;;) {
    // Mark finished GPUs and collect throttle-recovery work, in index
    // order (recovery is GPU-local, as in the tenant loop).
    std::vector<std::size_t> recover;
    bool all_done = true;
    for (std::size_t g = 0; g < n; ++g) {
      GpuEngine& e = *gpus_[g];
      if (gpu_finished(e)) {
        if (!done[g]) {
          done[g] = true;
          done_at[g] = engine.now();
        }
        continue;
      }
      all_done = false;
      if (e.fault_buffer().empty()) recover.push_back(g);
    }
    if (all_done) break;
    for (const std::size_t g : recover) {
      GpuEngine& e = *gpus_[g];
      e.force_token_refill();
      e.on_replay();
      generate_window(g);
      if (e.fault_buffer().empty() && !gpu_finished(e)) {
        throw std::logic_error("uvmsim: multi-gpu fault wedge");
      }
    }

    // FCFS arbitration: every contending GPU posts its earliest fault
    // arrival; the engine's (time, component) key hands the worker the
    // oldest one, ties at equal timestamps going to the lowest GPU index.
    GpuEngine* selected = nullptr;
    std::size_t selected_idx = 0;
    std::vector<EventEngine::EventId> wakeups;
    for (std::size_t g = 0; g < n; ++g) {
      GpuEngine& e = *gpus_[g];
      if (gpu_finished(e)) continue;
      const auto arrival = e.fault_buffer().next_arrival();
      if (!arrival) continue;  // finished during recovery this round
      wakeups.push_back(engine.post(
          *arrival, components::kClientBase + static_cast<std::uint32_t>(g),
          [&selected, &selected_idx, &e, g](SimTime) {
            selected = &e;
            selected_idx = g;
          }));
    }
    if (wakeups.empty()) continue;  // recovery emptied the field
    engine.step();  // advances the clock to the winning arrival
    // Losers' wakeups are stale once the winner is serviced; re-post next
    // round against the new arrival picture.
    for (const auto id : wakeups) engine.cancel(id);

    GpuEngine& e = *selected;
    engine.advance_by(driver_.pcie().config().interrupt_latency_ns +
                      driver_.config().wakeup_ns);

    // Service this GPU's arrived batches; other GPUs' faults queue on the
    // single driver worker. Faults are stamped with their source GPU so
    // the servicer places pages and updates the right page tables.
    for (;;) {
      auto raw = e.fault_buffer().drain_arrived(
          driver_.effective_batch_size(), engine.now());
      if (raw.empty()) break;
      for (auto& f : raw) f.gpu = static_cast<std::uint32_t>(selected_idx);
      const BatchRecord& record = driver_.handle_batch(raw, engine.now());
      engine.advance_to(record.end_ns);

      if (driver_.config().flush_on_replay) {
        e.fault_buffer().flush_arrived(engine.now());
      }
      e.on_replay();
      const auto gen = e.generate(engine.now(), views_[selected_idx]);
      compute_ns[selected_idx] +=
          gen.compute_ns +
          gen.remote_requests * config_.gpu.remote_request_pipelined_ns;
      engine.advance_by(gen.compute_ns +
                        gen.remote_requests *
                            config_.gpu.remote_request_pipelined_ns);
      if (++batches > max_batches) {
        throw std::logic_error("uvmsim: multi-gpu batch guard exceeded");
      }
    }
  }

  result.makespan_ns = engine.now();
  result.batches_serviced = batches;
  engine_stats_ = engine.stats();

  RunResult& agg = result.aggregate;
  agg.log = driver_.take_log();
  agg.kernel_time_ns = result.makespan_ns;
  for (const auto& rec : agg.log) {
    agg.batch_time_ns += rec.duration_ns();
    result.peer_pages_migrated += rec.counters.peer_pages_migrated;
    result.peer_maps += rec.counters.peer_maps;
    result.peer_placements += rec.counters.peer_placements;
    result.bytes_peer += rec.counters.bytes_peer;
  }
  for (std::size_t g = 0; g < n; ++g) {
    result.per_gpu_kernel_ns[g] = done[g] ? done_at[g] : engine.now();
    agg.gpu_compute_ns += compute_ns[g];
    agg.total_faults += gpus_[g]->total_faults_emitted();
    agg.duplicate_emissions += gpus_[g]->total_duplicate_emissions();
    agg.remote_accesses += gpus_[g]->remote_accesses();
    agg.replays += gpus_[g]->replays_seen();
  }
  agg.evictions = driver_.total_evictions();
  agg.bytes_h2d = driver_.copy_engine().bytes_to_device();
  agg.bytes_d2h = driver_.copy_engine().bytes_to_host();

  const Topology& topo = driver_.topology();
  result.links.reserve(topo.num_links());
  for (std::size_t i = 0; i < topo.num_links(); ++i) {
    const LinkDesc& d = topo.link(i);
    const LinkStats& s = topo.stats(i);
    LinkReport report;
    report.name = d.name;
    report.kind = d.kind;
    report.bytes = s.bytes;
    report.ops = s.ops;
    report.busy_ns = s.busy_ns;
    report.utilization =
        result.makespan_ns > 0
            ? static_cast<double>(s.busy_ns) /
                  static_cast<double>(result.makespan_ns)
            : 0.0;
    result.links.push_back(std::move(report));
  }
  return result;
}

}  // namespace uvmsim
