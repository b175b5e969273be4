#include "core/node.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace uvmsim {

namespace {

/// The RunResult fields that are per-run deltas of a cumulative counter.
constexpr std::uint64_t RunResult::*kDeltaFields[] = {
    &RunResult::total_faults,
    &RunResult::duplicate_emissions,
    &RunResult::remote_accesses,
    &RunResult::replays,
    &RunResult::evictions,
    &RunResult::bytes_h2d,
    &RunResult::bytes_d2h,
    &RunResult::faults_dropped_full,
    &RunResult::faults_flushed,
    &RunResult::interrupts_delayed,
    &RunResult::interrupts_lost,
    &RunResult::injected_transfer_errors,
    &RunResult::injected_dma_errors,
    &RunResult::injected_storm_faults,
    &RunResult::injected_ecc_faults,
    &RunResult::injected_poison_faults,
    &RunResult::injected_ce_failures,
    &RunResult::injected_wedges,
    &RunResult::counter_notifications,
    &RunResult::counter_notifications_dropped,
    &RunResult::counter_notifications_lost,
};

FaultInjectConfig with_seed(FaultInjectConfig inject, std::uint64_t seed) {
  inject.seed = seed;
  return inject;
}

std::vector<double> weights_of(const std::vector<NodeSource>& sources) {
  std::vector<double> weights;
  weights.reserve(sources.size());
  for (const NodeSource& s : sources) weights.push_back(s.tenant.weight);
  return weights;
}

}  // namespace

Node::DriverSlot::DriverSlot(const SystemConfig& config,
                             std::uint64_t memory_bytes, std::uint32_t index)
    : sink(config.obs.trace ? &tracer : nullptr),
      injector(with_seed(config.driver.inject,
                         config.driver.inject.seed + 0x9E37 * index)),
      counters(config.driver.access_counters.enabled
                   ? std::make_unique<AccessCounterUnit>(
                         config.driver.access_counters.granularity_pages,
                         config.driver.access_counters.threshold,
                         config.driver.access_counters.buffer_entries)
                   : nullptr),
      driver(config.driver, memory_bytes, config.gpu.num_sms, config.pcie,
             &injector, sink) {
  if (counters) {
    // The driver programs the counter registers at init; the GPU engines
    // feed the unit at µTLB resolution and the driver services it after
    // each fault batch.
    counters->set_fault_injector(&injector);
    driver.set_access_counters(counters.get());
  }
  if (sink) {
    tracer.set_track_name(tracks::kSim, "sim");
    tracer.set_track_name(tracks::kDriver, "uvm driver");
    tracer.set_track_name(tracks::kGpu, "gpu");
    if (counters) tracer.set_track_name(tracks::kCounters, "access counters");
    if (config.driver.recovery.enabled) {
      tracer.set_track_name(tracks::kRecovery, "recovery");
    }
    if (config.driver.parallelism.active()) {
      for (unsigned k = 0; k < config.driver.parallelism.workers; ++k) {
        tracer.set_track_name(tracks::kWorkerBase + k,
                              "servicing worker " + std::to_string(k));
      }
    }
  }
}

Node::SourceSlot::SourceSlot(const SystemConfig& config,
                             const NodeSource& spec, DriverSlot& slot)
    : spec(spec), slot(slot), gpu(config.gpu, spec.seed) {
  gpu.set_fault_injector(&slot.injector);
  gpu.set_tracer(slot.sink);
  if (slot.counters) gpu.set_access_counters(slot.counters.get());
  view.driver = &slot.driver;
  view.gpu = spec.gpu;
  residency = slot.driver.config().multi_gpu.num_gpus > 1
                  ? static_cast<const ResidencyOracle*>(&view)
                  : &slot.driver;
}

Node::Node(const SystemConfig& config,
           const std::vector<std::uint64_t>& memory_bytes,
           std::vector<NodeSource> sources, TenantSchedConfig sched)
    : config_(config), scheduler_(sched, weights_of(sources)) {
  for (std::size_t d = 0; d < memory_bytes.size(); ++d) {
    drivers_.emplace_back(config_, memory_bytes[d],
                          static_cast<std::uint32_t>(d));
  }
  for (const NodeSource& spec : sources) {
    DriverSlot& slot = drivers_.at(spec.driver);
    slot.sources.push_back(sources_.size());
    sources_.emplace_back(config_, spec, slot);
  }
}

struct Node::Chain {
  // Wedged-buffer watchdog: consecutive wakeups that found the buffer
  // presenting nothing escalate batch-stuck -> channel reset -> full GPU
  // reset (recovery tiers 3/4). Dead state unless recovery is enabled and
  // a wedge fires.
  struct Watchdog {
    std::uint32_t stuck_wakeups = 0;
    bool channel_reset_tried = false;
    bool needs_gpu_reset = false;
  };

  struct SourceRun {
    bool finished = false;
    SimTime done_at = 0;
    std::uint64_t dropped_seen = 0;  // buffer drops already reported
    Watchdog watchdog;
  };

  // The worker's current grant: from the arbiter's pick to the end of the
  // last batch it services, the worker holds the shared driver locks.
  struct Grant {
    std::size_t source = 0;
    SimTime start = 0;
    SimTime first_arrival = 0;
    std::uint32_t batches = 0;
    std::uint64_t faults = 0;
  };

  Chain(Node& node, const std::vector<NodeLaunch>& launches);

  SimTime window(std::size_t s);
  void windows(const std::vector<std::size_t>& list);
  void launch();
  void schedule_next();
  void forced_refill(SimTime now);
  void interrupt(SimTime now);
  void service(SimTime now);
  void watchdog_wakeup(std::size_t s);
  void reset_sources(const DriverSlot& slot);
  void end_grant(bool deferred);
  void finish_kernel();
  void guard();
  NodeResult finish();

  Node& node;
  const std::vector<NodeLaunch>& launches;
  EventEngine& eng;
  const bool fcfs;
  const bool recovery_armed;
  const std::uint32_t stuck_threshold;
  TenantScheduler scheduler;
  const SimTime t0;
  SimTime end = 0;
  std::uint64_t max_steps = 1'000'000;
  std::uint64_t steps = 0;  // batches plus stuck wakeups, for the guard
  // Shares are proportional to weights only while every source is
  // backlogged, so the window snapshot is taken at the first completion.
  bool window_open = true;
  Grant grant;
  std::vector<SourceRun> state;
  std::vector<RunResult> before;  // totals() at launch, per driver
  std::vector<std::size_t> log_before;
  std::vector<std::size_t> scratch;
  NodeResult result;
};

Node::Chain::Chain(Node& node, const std::vector<NodeLaunch>& launches)
    : node(node),
      launches(launches),
      eng(node.engine_),
      fcfs(node.scheduler_.config().policy == TenantSchedPolicy::kFcfs),
      recovery_armed(node.config_.driver.recovery.enabled),
      stuck_threshold(
          std::max(1u, node.config_.driver.recovery.watchdog_stuck_wakeups)),
      scheduler(node.scheduler_),
      t0(node.engine_.now()),
      end(t0),
      state(node.sources_.size()) {
  const std::size_t n = node.sources_.size();
  result.per_driver.resize(node.drivers_.size());
  result.kernel_ns.assign(n, 0);
  result.per_source.resize(n);
  for (const DriverSlot& slot : node.drivers_) {
    before.push_back(node.totals(slot));
    log_before.push_back(slot.driver.log().size());
  }
  for (std::size_t s = 0; s < n; ++s) {
    state[s].dropped_seen =
        node.sources_[s].gpu.fault_buffer().total_dropped_full();
    // The guard bounds batches; real runs are far below it.
    max_steps += 16 * launches[s].kernel->total_accesses();
  }
}

RunResult Node::totals(const DriverSlot& slot) const {
  RunResult t;
  for (const std::size_t s : slot.sources) {
    const GpuEngine& gpu = sources_[s].gpu;
    t.total_faults += gpu.total_faults_emitted();
    t.duplicate_emissions += gpu.total_duplicate_emissions();
    t.remote_accesses += gpu.remote_accesses();
    t.replays += gpu.replays_seen();
    t.faults_dropped_full += gpu.fault_buffer().total_dropped_full();
    t.faults_flushed += gpu.fault_buffer().total_flushed();
  }
  t.evictions = slot.driver.total_evictions();
  t.bytes_h2d = slot.driver.copy_engine().bytes_to_device();
  t.bytes_d2h = slot.driver.copy_engine().bytes_to_host();
  const FaultInjector& inj = slot.injector;
  t.interrupts_delayed = inj.interrupts_delayed();
  t.interrupts_lost = inj.interrupts_lost();
  t.injected_transfer_errors = inj.transfer_errors_injected();
  t.injected_dma_errors = inj.dma_map_errors_injected();
  t.injected_storm_faults = inj.storm_faults_injected();
  t.injected_ecc_faults = inj.ecc_faults_injected();
  t.injected_poison_faults = inj.poison_faults_injected();
  t.injected_ce_failures = inj.ce_failures_injected();
  t.injected_wedges = inj.wedges_injected();
  t.counter_notifications_lost = inj.counter_notifications_lost();
  if (slot.counters) {
    t.counter_notifications = slot.counters->total_notifications();
    t.counter_notifications_dropped = slot.counters->total_dropped_full();
  }
  return t;
}

// One GPU window of source s starting at now: every runnable warp issues
// until stalled. Returns the window's compute share without advancing the
// clock, and traces the window.
SimTime Node::Chain::window(std::size_t s) {
  SourceSlot& src = node.sources_[s];
  const SimTime g0 = eng.now();
  const auto g = src.gpu.generate(g0, *src.residency);
  const SimTime ns =
      g.compute_ns +
      g.remote_requests * node.config_.gpu.remote_request_pipelined_ns;
  result.per_driver[src.spec.driver].gpu_compute_ns += g.compute_ns;
  if (src.slot.sink && (ns > 0 || g.faults_pushed > 0)) {
    src.slot.sink->span(tracks::kGpu, "compute", g0, g0 + ns,
                        {{"faults", g.faults_pushed},
                         {"duplicates", g.duplicate_pushes},
                         {"remote", g.remote_requests}});
  }
  return ns;
}

// Windows started at one instant run side by side: the clock advances by
// the longest of them.
void Node::Chain::windows(const std::vector<std::size_t>& list) {
  SimTime longest = 0;
  for (const std::size_t s : list) longest = std::max(longest, window(s));
  eng.advance_by(longest);
}

void Node::Chain::launch() {
  scratch.resize(launches.size());
  std::iota(scratch.begin(), scratch.end(), std::size_t{0});
  for (const std::size_t s : scratch) {
    node.sources_[s].gpu.launch(*launches[s].kernel, launches[s].base_page);
  }
  windows(scratch);
  schedule_next();
}

// The worker is idle: mark finished sources, then end the kernel, refill a
// starved source, or grant the worker to the arbiter's pick.
void Node::Chain::schedule_next() {
  bool all_finished = true;
  bool starved = false;
  for (std::size_t s = 0; s < state.size(); ++s) {
    const GpuEngine& gpu = node.sources_[s].gpu;
    SourceRun& st = state[s];
    if (!st.finished && gpu.all_done() && gpu.fault_buffer().empty()) {
      st.finished = true;
      st.done_at = eng.now();
      result.per_source[s].completion_ns = eng.now() - t0;
      if (window_open) {
        window_open = false;
        for (TenantStats& ts : result.per_source) {
          ts.window_service_ns = ts.service_ns;
          ts.window_faults = ts.faults;
        }
      }
    }
    if (st.finished) continue;
    all_finished = false;
    starved = starved || gpu.fault_buffer().empty();
  }
  if (all_finished) {
    finish_kernel();
    return;
  }
  if (starved) {
    eng.post(eng.now(), components::kGpu,
             [this](SimTime now) { forced_refill(now); });
    return;
  }

  // Arbiter. FCFS grants the earliest arrival, ties to the lowest index;
  // DRR and stride pick among every source backlogged by the grant time.
  SimTime t_min = std::numeric_limits<SimTime>::max();
  for (std::size_t s = 0; s < state.size(); ++s) {
    if (state[s].finished) continue;
    t_min = std::min(t_min,
                     *node.sources_[s].gpu.fault_buffer().next_arrival());
  }
  const SimTime grant_time = std::max(eng.now(), t_min);
  const SimTime cutoff = fcfs ? t_min : grant_time;
  scratch.clear();
  for (std::size_t s = 0; s < state.size(); ++s) {
    if (!state[s].finished &&
        *node.sources_[s].gpu.fault_buffer().next_arrival() <= cutoff) {
      scratch.push_back(s);
    }
  }
  const std::size_t s = scheduler.pick(scratch);
  SourceSlot& src = node.sources_[s];
  DriverSlot& slot = src.slot;
  FaultBuffer& buffer = src.gpu.fault_buffer();

  // Injected fatal wedge: the buffer stops presenting records until the
  // watchdog escalates to a reset. Probed once per grant while unwedged
  // (zero draws unless armed); the wedge's severity is drawn with it.
  if (recovery_armed && !buffer.wedged() &&
      slot.injector.fault_buffer_wedge()) {
    buffer.set_wedged();
    const bool gpu_reset = slot.injector.wedge_needs_gpu_reset();
    state[s].watchdog.needs_gpu_reset = gpu_reset;
    if (slot.sink) {
      slot.sink->instant(tracks::kRecovery, "buffer_wedged", eng.now(),
                         {{"needs_gpu_reset", gpu_reset ? 1u : 0u}});
    }
  }
  // The interrupt for the picked source's earliest fault wakes the worker;
  // it can only read records the GMMU has written by then. A lost
  // interrupt wakes it only through the watchdog; a delayed one adds its
  // scheduling latency. Both draws are zero when injection is off.
  const SimTime irq_extra = slot.injector.interrupt_loss()
                                ? slot.injector.config().interrupt_recovery_ns
                                : slot.injector.interrupt_delay();
  grant = Grant{s, grant_time, *buffer.next_arrival(), 0, 0};
  eng.post(grant_time + slot.driver.pcie().config().interrupt_latency_ns +
               slot.driver.config().wakeup_ns + irq_extra,
           components::kDriver, [this](SimTime now) { interrupt(now); });
}

// A source is not done but has no fault to present: every runnable access
// is blocked by the throttle with a drained buffer (possible only after
// hardware drops) or awaits a replay. Model the throttle-timer expiry:
// refill tokens, replay and regenerate, for every such source.
void Node::Chain::forced_refill(SimTime now) {
  scratch.clear();
  for (std::size_t s = 0; s < state.size(); ++s) {
    SourceSlot& src = node.sources_[s];
    if (state[s].finished || !src.gpu.fault_buffer().empty()) continue;
    scratch.push_back(s);
    ++result.per_driver[src.spec.driver].forced_throttle_refills;
    if (src.slot.sink) {
      src.slot.sink->instant(tracks::kSim, "forced_token_refill", now);
    }
    src.gpu.force_token_refill();
    src.gpu.on_replay();
  }
  windows(scratch);
  for (const std::size_t s : scratch) {
    const GpuEngine& gpu = node.sources_[s].gpu;
    if (gpu.fault_buffer().empty() && !gpu.all_done()) {
      throw std::logic_error("uvmsim: fault generation wedged");
    }
  }
  schedule_next();
}

void Node::Chain::interrupt(SimTime now) {
  Tracer* const tracer = node.sources_[grant.source].slot.sink;
  if (tracer) {
    tracer->instant(tracks::kSim, "interrupt", now,
                    {{"first_arrival", grant.first_arrival}});
  }
  ++result.per_source[grant.source].grants;
  eng.post(now, components::kDriver, [this](SimTime t) { service(t); });
}

// The woken worker services the granted source's arrived batches, one
// event per batch, until none remain or the grant's batch cap is hit.
void Node::Chain::service(SimTime now) {
  const std::size_t s = grant.source;
  SourceSlot& src = node.sources_[s];
  UvmDriver& driver = src.slot.driver;
  FaultBuffer& buffer = src.gpu.fault_buffer();
  SourceRun& st = state[s];
  auto raw = buffer.drain_arrived(driver.effective_batch_size(), now);
  if (raw.empty()) {
    if (recovery_armed && buffer.wedged()) watchdog_wakeup(s);
    end_grant(false);
    return;
  }
  st.watchdog.stuck_wakeups = 0;

  // Queueing delay: service start minus the oldest arrival on board.
  // Faults are stamped with their GPU so the servicer places pages and
  // updates the right page tables.
  SimTime earliest = raw.front().timestamp;
  for (FaultRecord& f : raw) {
    earliest = std::min(earliest, f.timestamp);
    f.gpu = src.spec.gpu;
  }
  TenantStats& ts = result.per_source[s];
  const SimTime wait = now > earliest ? now - earliest : 0;
  ts.wait_ns += wait;
  ts.max_wait_ns = std::max(ts.max_wait_ns, wait);
  ts.faults += raw.size();
  ++ts.batches;
  ++grant.batches;
  grant.faults += raw.size();

  const std::uint64_t dropped_now = buffer.total_dropped_full();
  const std::uint64_t resets_before = driver.recovery().gpu_resets();
  const BatchRecord& record = driver.handle_batch(
      raw, now, static_cast<std::uint32_t>(dropped_now - st.dropped_seen));
  st.dropped_seen = dropped_now;
  result.worker_busy_ns += record.duration_ns();
  eng.advance_to(record.end_ns);
  if (driver.recovery().gpu_resets() != resets_before) {
    // The bottom half escalated to a full GPU reset (retired-page pool
    // overflow): reset the engine side too. full_reset subsumes the
    // pre-replay flush and the replay's µTLB clear.
    reset_sources(src.slot);
  } else {
    if (driver.config().flush_on_replay) buffer.flush_arrived(eng.now());
    src.gpu.on_replay();
  }
  eng.advance_by(window(s));
  guard();

  const std::uint32_t cap = src.spec.tenant.max_batches_per_grant;
  if (cap != 0 && grant.batches >= cap) {
    // Anti-monopolization: hand the worker back with work pending.
    const auto next = buffer.next_arrival();
    end_grant(next && *next <= eng.now());
    return;
  }
  eng.post(eng.now(), components::kDriver, [this](SimTime t) { service(t); });
}

// A wedged buffer presents nothing: consecutive stuck wakeups drive the
// watchdog up the ladder — channel reset first (tier 3; clears a
// channel-severity wedge), then a full GPU reset (tier 4).
void Node::Chain::watchdog_wakeup(std::size_t s) {
  SourceSlot& src = node.sources_[s];
  UvmDriver& driver = src.slot.driver;
  Watchdog& wd = state[s].watchdog;
  ++result.per_driver[src.spec.driver].watchdog_stuck_wakeups;
  if (++wd.stuck_wakeups >= stuck_threshold) {
    wd.stuck_wakeups = 0;
    if (!wd.channel_reset_tried) {
      wd.channel_reset_tried = true;
      eng.advance_to(driver.service_channel_reset(eng.now()).end_ns);
      if (!wd.needs_gpu_reset) {
        src.gpu.fault_buffer().clear_wedged();
        wd.channel_reset_tried = false;
      }
    } else {
      // The driver tears down and rebuilds its state, then the engines
      // drop all stale buffer/µTLB state and the kernel re-faults its
      // working set.
      eng.advance_to(driver.service_gpu_reset(eng.now()).end_ns);
      reset_sources(src.slot);
      eng.advance_by(window(s));
    }
  }
  guard();
}

// A GPU reset of a driver resets every GPU engine it serves.
void Node::Chain::reset_sources(const DriverSlot& slot) {
  for (const std::size_t s : slot.sources) {
    node.sources_[s].gpu.full_reset();
    state[s].watchdog = {};
  }
}

// The grant ends: charge its worker time to the source, and charge every
// other source whose backlog overlapped it with the overlap — its wait for
// the shared driver locks (VABlock, fault buffer).
void Node::Chain::end_grant(bool deferred) {
  TenantStats& ts = result.per_source[grant.source];
  if (deferred) ++ts.deferrals;
  const SimTime grant_ns = eng.now() - grant.start;
  ts.service_ns += grant_ns;
  ts.max_grant_ns = std::max(ts.max_grant_ns, grant_ns);
  scheduler.charge(grant.source, grant_ns, grant.faults);
  for (std::size_t j = 0; j < state.size(); ++j) {
    const auto arrival = node.sources_[j].gpu.fault_buffer().next_arrival();
    if (j == grant.source || !arrival || *arrival >= eng.now()) continue;
    result.per_source[j].lock_wait_ns +=
        eng.now() - std::max(*arrival, grant.start);
  }
  schedule_next();
}

// Every kernel is done: drain each driver's counter channel. Remote
// traffic from late GPU windows can leave notifications with no fault
// interrupt left to piggyback on; the counter interrupt wakes the driver
// once more (real nvidia-uvm services access counters between kernels
// too), charged after kernel completion.
void Node::Chain::finish_kernel() {
  end = eng.now();
  for (DriverSlot& slot : node.drivers_) {
    AccessCounterUnit* const counters = slot.counters.get();
    if (!counters || counters->empty()) continue;
    const SimTime wake = std::max(eng.now(), counters->next_arrival()) +
                         slot.driver.pcie().config().interrupt_latency_ns +
                         slot.driver.config().wakeup_ns;
    eng.post(wake, components::kCounters, [this, d = &slot](SimTime now) {
      AccessCounterUnit& unit = *d->counters;
      if (d->sink) {
        d->sink->instant(tracks::kSim, "counter_interrupt", now,
                         {{"pending", unit.pending()}});
      }
      ++node.chain_totals_.counter_interrupts;
      while (!unit.empty()) {
        eng.advance_to(d->driver.service_counter_interrupt(eng.now()).end_ns);
      }
    });
  }
}

void Node::Chain::guard() {
  if (++steps > max_steps) {
    throw std::logic_error("uvmsim: batch guard exceeded (livelock?)");
  }
}

NodeResult Node::Chain::finish() {
  ChainTotals& books = node.chain_totals_;
  result.makespan_ns = end - t0;
  ++books.runs;
  books.kernel_time_ns += result.makespan_ns;
  for (std::size_t s = 0; s < state.size(); ++s) {
    result.kernel_ns[s] = state[s].done_at - t0;
    result.batches += result.per_source[s].batches;
    books.interrupts += result.per_source[s].grants;
  }
  for (std::size_t d = 0; d < node.drivers_.size(); ++d) {
    const DriverSlot& slot = node.drivers_[d];
    RunResult& r = result.per_driver[d];
    const RunResult after = node.totals(slot);
    for (const auto field : kDeltaFields) {
      r.*field = after.*field - before[d].*field;
    }
    r.log.assign(slot.driver.log().begin() + log_before[d],
                 slot.driver.log().end());
    for (const std::size_t s : slot.sources) {
      r.kernel_time_ns = std::max(r.kernel_time_ns, result.kernel_ns[s]);
    }
    r.batch_time_ns = uvmsim::totals(r.log).batch_time_ns;
    books.gpu_compute_ns += r.gpu_compute_ns;
    books.forced_refills += r.forced_throttle_refills;
  }
  return std::move(result);
}

MetricsRegistry Node::metrics() const {
  MetricsRegistry m;
  auto& c = m.counters;
  const auto event = [&c](const char* name, std::uint64_t n) {
    if (n > 0) c[name] = n;
  };

  // The batch logs: every driver's records, one pass.
  BatchTotals logged;
  Log2Histogram durations, raw, unique, vablocks;
  std::uint64_t counter_passes = 0;
  std::int64_t batch_size = 0;
  for (const DriverSlot& slot : drivers_) {
    for (const BatchRecord& rec : slot.driver.log()) {
      logged.add(rec);
      durations.add(rec.duration_ns());
      raw.add(rec.counters.raw_faults);
      unique.add(rec.counters.unique_faults);
      vablocks.add(rec.counters.vablocks_touched);
      // A record holds at most one counter pass, and only a pass that
      // drained something charges anything.
      if (rec.counters.ctr_notifications > 0) ++counter_passes;
    }
    if (!slot.driver.log().empty()) {
      batch_size = std::max<std::int64_t>(batch_size,
                                          slot.driver.effective_batch_size());
    }
  }
  if (durations.total() > 0) {
    c["driver.batches"] = durations.total();
    c["driver.batch_time_ns"] = logged.batch_time_ns;
    logged.for_each_field([&c](const BatchField& field, std::uint64_t total) {
      c.emplace(field.metric, total);
    });
    m.gauges["driver.effective_batch_size"] = batch_size;
    m.histograms["batch.duration_ns"] = durations;
    m.histograms["batch.raw_faults"] = raw;
    m.histograms["batch.unique_faults"] = unique;
    m.histograms["batch.vablocks_touched"] = vablocks;
  }
  if (counter_passes > 0) {
    c["counter.passes"] = counter_passes;
    c["counter.notifications"] = logged.ctr_notifications;
    c["counter.pages_promoted"] = logged.ctr_pages_promoted;
    c["counter.unpins"] = logged.ctr_unpins;
    c["counter.evictions"] = logged.ctr_evictions;
    c["counter.service_ns"] = logged.counter_ns;  // a pass charges only it
  }
  event("counter.dropped", logged.ctr_dropped);

  // The cumulative counters of every driver and source.
  RunResult all;
  Log2Histogram run_pages;
  std::uint64_t bytes_peer = 0, map_calls = 0, radix_nodes = 0,
                growths = 0, mapped = 0;
  for (const DriverSlot& slot : drivers_) {
    const RunResult t = totals(slot);
    for (const auto field : kDeltaFields) all.*field += t.*field;
    const CopyEngine& copy = slot.driver.copy_engine();
    run_pages.merge(copy.run_pages());
    bytes_peer += copy.bytes_peer();
    const DmaMapper& dma = slot.driver.dma();
    map_calls += dma.map_calls();
    radix_nodes += dma.radix_nodes();
    growths += dma.radix_height_growths();
    mapped += dma.mapped_pages();
  }

  // The engines, and the chain itself, once a run completed.
  if (chain_totals_.runs > 0) {
    std::uint64_t visits = 0, idle = 0, probes = 0, oracle = 0;
    std::int64_t warps = 0, retired = 0;
    for (const SourceSlot& src : sources_) {
      visits += src.gpu.warp_visits();
      idle += src.gpu.idle_warp_visits();
      probes += src.gpu.residency_probes();
      oracle += src.gpu.oracle_probes();
      warps += src.gpu.active_warps();
      retired += static_cast<std::int64_t>(src.gpu.blocks_retired());
    }
    c["gpu.faults_emitted"] = all.total_faults;
    c["gpu.duplicate_emissions"] = all.duplicate_emissions;
    c["gpu.remote_accesses"] = all.remote_accesses;
    c["gpu.warp_visits"] = visits;
    c["gpu.idle_warp_visits"] = idle;
    c["gpu.residency_probes"] = probes;
    c["gpu.oracle_probes"] = oracle;
    m.gauges["gpu.active_warps"] = warps;
    m.gauges["gpu.blocks_retired"] = retired;
    c["sim.runs"] = chain_totals_.runs;
    c["sim.kernel_time_ns"] = chain_totals_.kernel_time_ns;
    c["sim.gpu_compute_ns"] = chain_totals_.gpu_compute_ns;
  }
  event("gpu.storm_faults_emitted", all.injected_storm_faults);
  event("sim.interrupts", chain_totals_.interrupts);
  event("sim.counter_interrupts", chain_totals_.counter_interrupts);
  event("sim.forced_token_refills", chain_totals_.forced_refills);
  event("sim.buffer_wedges", all.injected_wedges);

  event("copy.bytes_h2d", all.bytes_h2d);
  event("copy.bytes_d2h", all.bytes_d2h);
  event("copy.bytes_peer", bytes_peer);
  if (run_pages.total() > 0) {
    c["copy.dma_ops"] = run_pages.total();
    m.histograms["copy.run_pages"] = run_pages;
  }

  if (map_calls > 0) {
    c["dma.map_calls"] = map_calls;
    c["dma.pages_mapped"] = mapped;  // nothing is ever unmapped
    c["dma.radix_nodes"] = radix_nodes;
    m.gauges["dma.mapped_pages"] = static_cast<std::int64_t>(mapped);
  }
  event("dma.radix_height_growths", growths);
  return m;
}

NodeResult Node::run(const std::vector<NodeLaunch>& launches) {
  if (launches.size() != sources_.size()) {
    throw std::invalid_argument("Node::run: one launch per source required");
  }
  if (!engine_.empty()) {
    throw std::logic_error("Node::run: events left by a run that threw");
  }
  Chain chain(*this, launches);
  // The launch seeds the chain; the engine drains it (the chain ends when
  // the kernel completes and the counter drains post nothing further).
  engine_.post(engine_.now(), components::kGpu,
               [&chain](SimTime) { chain.launch(); });
  engine_.run();
  return chain.finish();
}

}  // namespace uvmsim
