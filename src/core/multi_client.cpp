#include "core/multi_client.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace uvmsim {

MultiClientSystem::MultiClientSystem(SystemConfig config,
                                     std::uint32_t num_clients)
    : MultiClientSystem(std::move(config),
                        std::vector<TenantConfig>(num_clients),
                        TenantSchedConfig{}) {}

MultiClientSystem::MultiClientSystem(SystemConfig config,
                                     std::vector<TenantConfig> tenants,
                                     TenantSchedConfig sched)
    : config_(std::move(config)),
      tenants_(std::move(tenants)),
      sched_(sched) {
  std::vector<double> weights;
  weights.reserve(tenants_.size());
  for (const auto& t : tenants_) weights.push_back(t.weight);
  // Validates weights (> 0) and the DRR quantum up front, so a bad roster
  // fails at construction, not mid-run.
  scheduler_ = std::make_unique<TenantScheduler>(sched_, std::move(weights));

  clients_.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    clients_.push_back(std::make_unique<Client>(
        config_, effective_memory_bytes(config_, tenants_[i]),
        config_.seed + 0x9E37 * (idx + 1), config_.obs.trace));
  }
}

std::uint64_t MultiClientSystem::effective_memory_bytes(
    const SystemConfig& config, const TenantConfig& t) {
  if (t.quota_pages == 0) return config.gpu.memory_bytes;
  const std::uint64_t quota_bytes = t.quota_pages * kPageSize;
  const std::uint64_t chunks =
      std::max<std::uint64_t>(2, (quota_bytes + kVaBlockSize - 1) / kVaBlockSize);
  return std::min(config.gpu.memory_bytes, chunks * kVaBlockSize);
}

MultiClientResult MultiClientSystem::run(
    const std::vector<WorkloadSpec>& specs) {
  if (specs.size() != clients_.size()) {
    throw std::invalid_argument(
        "MultiClientSystem::run: one WorkloadSpec per client required (got " +
        std::to_string(specs.size()) + " specs for " +
        std::to_string(clients_.size()) + " clients)");
  }

  const std::size_t n = clients_.size();
  MultiClientResult result;
  result.per_client.resize(n);
  result.per_tenant.resize(n);
  result.sched_policy = sched_.policy;
  for (std::size_t i = 0; i < n; ++i) {
    TenantStats& ts = result.per_tenant[i];
    ts.weight = tenants_[i].weight;
    ts.quota_pages = tenants_[i].quota_pages == 0
                         ? 0
                         : effective_memory_bytes(config_, tenants_[i]) /
                               kPageSize;
  }
  // Fresh scheduler state per run so repeated run() calls are identical.
  {
    std::vector<double> weights;
    weights.reserve(n);
    for (const auto& t : tenants_) weights.push_back(t.weight);
    scheduler_ = std::make_unique<TenantScheduler>(sched_, std::move(weights));
  }
  const bool weighted = sched_.policy != TenantSchedPolicy::kFcfs;

  EventEngine engine;

  // Allocate and launch every client, then run each one's first fault
  // generation window at t = 0.
  for (std::size_t i = 0; i < n; ++i) {
    Client& c = *clients_[i];
    const PageId base = c.driver.va_space().total_pages();
    for (const auto& alloc : specs[i].allocs) {
      c.driver.managed_alloc(alloc.bytes, alloc.name, alloc.init,
                             alloc.advise);
    }
    c.gpu.launch(specs[i].kernel, base);
  }
  for (std::size_t i = 0; i < n; ++i) {
    Client& c = *clients_[i];
    const auto gen = c.gpu.generate(engine.now(), c.driver);
    c.compute_ns += gen.compute_ns +
                    gen.remote_requests *
                        config_.gpu.remote_request_pipelined_ns;
  }

  const std::uint64_t max_batches = 4'000'000;
  std::uint64_t batches = 0;
  // Fairness window: shares are proportional to weights only while every
  // tenant is backlogged, so window_service_ns snapshots the ledger when
  // the FIRST tenant completes.
  bool window_open = true;

  for (;;) {
    // Mark finished clients and collect throttle-recovery work, in index
    // order (recovery is client-local, as in System::run's forced refill).
    std::vector<Client*> recover;
    bool all_done = true;
    for (std::size_t i = 0; i < n; ++i) {
      Client& c = *clients_[i];
      if (client_finished(c)) {
        if (!c.done) {
          c.done = true;
          c.done_at = engine.now();
          result.per_tenant[i].completion_ns = c.done_at;
          if (window_open) {
            window_open = false;
            for (TenantStats& ts : result.per_tenant) {
              ts.window_service_ns = ts.service_ns;
              ts.window_faults = ts.faults;
            }
          }
        }
        continue;
      }
      all_done = false;
      if (c.gpu.fault_buffer().empty()) recover.push_back(&c);
    }
    if (all_done) break;
    for (Client* c : recover) {
      c->gpu.force_token_refill();
      c->gpu.on_replay();
      const auto gen = c->gpu.generate(engine.now(), c->driver);
      c->compute_ns += gen.compute_ns;
      if (c->gpu.fault_buffer().empty() && !client_finished(*c)) {
        throw std::logic_error("uvmsim: multi-client fault wedge");
      }
    }

    Client* selected = nullptr;
    std::size_t selected_idx = 0;
    if (!weighted) {
      // Legacy FCFS: every contending client posts its earliest fault
      // arrival; the engine's (time, component) key hands the worker the
      // oldest one, ties at equal timestamps going to the lowest client
      // index.
      std::vector<EventEngine::EventId> wakeups;
      for (std::size_t i = 0; i < n; ++i) {
        Client& c = *clients_[i];
        if (client_finished(c)) continue;
        const auto arrival = c.gpu.fault_buffer().next_arrival();
        if (!arrival) continue;  // finished during recovery this round
        wakeups.push_back(engine.post(
            *arrival, components::kClientBase + static_cast<std::uint32_t>(i),
            [&selected, &selected_idx, &c, i](SimTime) {
              selected = &c;
              selected_idx = i;
            }));
      }
      if (wakeups.empty()) continue;  // recovery emptied the field
      engine.step();  // advances the clock to the winning arrival
      // The losers' wakeups are stale — their arrival picture changes once
      // the worker services the winner — so they re-post next round.
      for (const auto id : wakeups) engine.cancel(id);
    } else {
      // Weighted arbitration: the grant time is the earliest pending
      // arrival (clamped to now); every tenant backlogged by then is
      // eligible and the scheduler picks the winner. One event is posted
      // — keyed by the winning client so the event order stays a pure
      // function of simulation state — and stepped, never cancelled.
      std::vector<std::size_t> contenders;
      std::vector<SimTime> arrivals;
      SimTime t_min = 0;
      for (std::size_t i = 0; i < n; ++i) {
        Client& c = *clients_[i];
        if (client_finished(c)) continue;
        const auto arrival = c.gpu.fault_buffer().next_arrival();
        if (!arrival) continue;
        if (contenders.empty() || *arrival < t_min) t_min = *arrival;
        contenders.push_back(i);
        arrivals.push_back(*arrival);
      }
      if (contenders.empty()) continue;
      const SimTime grant_time = std::max(t_min, engine.now());
      std::vector<std::size_t> eligible;
      eligible.reserve(contenders.size());
      for (std::size_t k = 0; k < contenders.size(); ++k) {
        if (arrivals[k] <= grant_time) eligible.push_back(contenders[k]);
      }
      const std::size_t pick = scheduler_->pick(eligible);
      engine.post(grant_time,
                  components::kClientBase + static_cast<std::uint32_t>(pick),
                  [&selected, &selected_idx, this, pick](SimTime) {
                    selected = clients_[pick].get();
                    selected_idx = pick;
                  });
      engine.step();
    }

    Client& c = *selected;
    TenantStats& ts = result.per_tenant[selected_idx];
    ++ts.grants;
    // The worker holds the shared driver locks from selection until the
    // grant's last replay — other tenants' backlog overlapping this
    // interval is their lock-contention wait.
    const SimTime grant_start = engine.now();
    engine.advance_by(c.driver.pcie().config().interrupt_latency_ns +
                      c.driver.config().wakeup_ns);

    // Service this client's arrived batches; other clients' faults queue.
    const std::uint32_t cap = tenants_[selected_idx].max_batches_per_grant;
    std::uint32_t grant_batches = 0;
    std::uint64_t grant_faults = 0;
    bool deferred = false;
    for (;;) {
      auto raw = c.gpu.fault_buffer().drain_arrived(
          c.driver.effective_batch_size(), engine.now());
      if (raw.empty()) break;
      // Queueing delay: service start minus the oldest arrival on board.
      SimTime earliest = raw.front().timestamp;
      for (const auto& rec : raw) earliest = std::min(earliest, rec.timestamp);
      const SimTime wait =
          engine.now() > earliest ? engine.now() - earliest : 0;
      ts.wait_ns += wait;
      ts.max_wait_ns = std::max(ts.max_wait_ns, wait);
      ts.faults += raw.size();
      grant_faults += raw.size();
      ++ts.batches;
      ++grant_batches;

      const BatchRecord& record = c.driver.handle_batch(raw, engine.now());
      result.worker_busy_ns += record.duration_ns();
      engine.advance_to(record.end_ns);

      if (c.driver.config().flush_on_replay) {
        c.gpu.fault_buffer().flush_arrived(engine.now());
      }
      c.gpu.on_replay();
      const auto gen = c.gpu.generate(engine.now(), c.driver);
      c.compute_ns += gen.compute_ns +
                      gen.remote_requests *
                          config_.gpu.remote_request_pipelined_ns;
      engine.advance_by(gen.compute_ns +
                        gen.remote_requests *
                            config_.gpu.remote_request_pipelined_ns);

      if (++batches > max_batches) {
        throw std::logic_error("uvmsim: multi-client batch guard exceeded");
      }
      if (cap != 0 && grant_batches >= cap) {
        // Anti-monopolization: hand the worker back with work pending.
        const auto next = c.gpu.fault_buffer().next_arrival();
        if (next && *next <= engine.now()) deferred = true;
        break;
      }
    }
    if (deferred) ++ts.deferrals;
    const SimTime grant_end = engine.now();
    const SimTime grant_ns = grant_end - grant_start;
    ts.service_ns += grant_ns;
    ts.max_grant_ns = std::max(ts.max_grant_ns, grant_ns);
    scheduler_->charge(selected_idx, grant_ns, grant_faults);
    // Charge everyone whose backlog overlapped this grant with the
    // overlap: the shared-lock wait attributable to this tenant's turn.
    for (std::size_t j = 0; j < n; ++j) {
      if (j == selected_idx) continue;
      Client& other = *clients_[j];
      if (client_finished(other)) continue;
      const auto arrival = other.gpu.fault_buffer().next_arrival();
      if (!arrival || *arrival >= grant_end) continue;
      result.per_tenant[j].lock_wait_ns +=
          grant_end - std::max(*arrival, grant_start);
    }
  }

  result.makespan_ns = engine.now();
  result.batches_serviced = batches;
  engine_stats_ = engine.stats();
  for (std::size_t i = 0; i < n; ++i) {
    Client& c = *clients_[i];
    RunResult& r = result.per_client[i];
    r.log = c.driver.take_log();
    r.kernel_time_ns = c.done ? c.done_at : engine.now();
    for (const auto& rec : r.log) r.batch_time_ns += rec.duration_ns();
    r.gpu_compute_ns = c.compute_ns;
    r.total_faults = c.gpu.total_faults_emitted();
    r.duplicate_emissions = c.gpu.total_duplicate_emissions();
    r.replays = c.gpu.replays_seen();
    r.evictions = c.driver.total_evictions();
    r.bytes_h2d = c.driver.copy_engine().bytes_to_device();
    r.bytes_d2h = c.driver.copy_engine().bytes_to_host();
    result.per_tenant[i].evictions = r.evictions;
  }
  if (config_.obs.metrics) mirror_tenant_metrics(result);
  return result;
}

void MultiClientSystem::mirror_tenant_metrics(const MultiClientResult& result) {
  char name[64];
  for (std::size_t i = 0; i < result.per_tenant.size(); ++i) {
    const TenantStats& ts = result.per_tenant[i];
    const auto add = [&](const char* field, std::uint64_t value) {
      std::snprintf(name, sizeof(name), "tenant.%04zu.%s", i, field);
      metrics_.add(name, value);
    };
    add("batches", ts.batches);
    add("faults", ts.faults);
    add("grants", ts.grants);
    add("deferrals", ts.deferrals);
    add("evictions", ts.evictions);
    add("service_ns", ts.service_ns);
    add("wait_ns", ts.wait_ns);
    add("lock_wait_ns", ts.lock_wait_ns);
  }
}

}  // namespace uvmsim
