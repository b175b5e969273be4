// A multi-tenant UVM "server": many GPU clients sharing one driver worker.
//
// Figure 2 shows UVM as a client-server architecture: "one or more
// software clients (user-level GPU or host code)" served by one host
// driver. The paper's single-GPU study explicitly positions itself as
// "a base and foundation for studying the interactions among multiple
// devices on the same systems" (§1) and §6 predicts the serial driver
// bottleneck hits "any vendor implementing HMM for parallel devices".
//
// MultiClientSystem is the N-tenant preset over core/node.hpp: N private
// single-GPU drivers (each with its own fault buffer, memory, VA space,
// fault injector, optional access-counter unit and tracer) and N GPU
// sources, one per driver, whose fault batches are serviced by ONE driver
// worker on a shared timeline: while the worker services tenant A, tenant
// B's arrived faults wait. Tenant i's GPU engine is seeded
// config.seed + 0x9E37 * (i + 1) and its fault injector
// config.driver.inject.seed + 0x9E37 * i. Per-tenant TenantConfig adds a
// fair-share weight, an oversubscription quota (enforced by capping the
// tenant's device memory, so the stock eviction machinery applies the
// pressure), and a per-grant batch cap; the node's arbiter grants the
// worker across tenants (FCFS / deficit-round-robin / stride).
//
// Under kFcfs the worker always wakes for the oldest pending arrival, ties
// at equal timestamps going to the lowest client index. Under the weighted
// policies the scheduler picks among the tenants backlogged by the grant
// time (the earliest arrival, clamped to now); scheduler state advances
// only on explicit charges of simulated quantities, so decisions are
// byte-identical across repeat runs.
//
// Contention accounting: every serviced batch records its queueing delay
// (service start minus the earliest fault arrival it contains), and every
// grant charges the tenants left waiting with the overlap between their
// backlog and the grant — the per-tenant view of the shared driver locks
// (VABlock, fault buffer) being held on someone else's behalf.
#pragma once

#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "uvm/tenant.hpp"
#include "uvm/tenant_sched.hpp"

namespace uvmsim {

struct MultiClientResult {
  std::vector<RunResult> per_client;  // this run's counters only
  SimTime makespan_ns = 0;        // all clients complete
  SimTime worker_busy_ns = 0;     // driver time spent servicing batches
  std::uint64_t batches_serviced = 0;

  // Multi-tenant contention ledger (one entry per tenant) and the policy
  // that produced it. Filled on every run; with the default uniform
  // FCFS configuration it is pure extra observability.
  std::vector<TenantStats> per_tenant;
  TenantSchedPolicy sched_policy = TenantSchedPolicy::kFcfs;
};

class MultiClientSystem {
 public:
  /// Uniform roster: every client gets the same per-GPU configuration (its
  /// own GPU memory of config.gpu.memory_bytes), weight 1, no quota, FCFS
  /// arbitration. With config.obs.trace set, each client records into its
  /// OWN tracer (one timeline per client — see client_tracer), keeping
  /// trace streams isolated under contention.
  MultiClientSystem(SystemConfig config, std::uint32_t num_clients);

  /// Multi-tenant roster: tenants[i] configures client i (weight, quota,
  /// per-grant cap) and `sched` selects the arbitration discipline.
  /// Uniform weights + quotas off + kFcfs is bit-identical to the uniform
  /// constructor.
  MultiClientSystem(SystemConfig config, std::vector<TenantConfig> tenants,
                    TenantSchedConfig sched = {});

  /// Launch specs[i] on client i (specs.size() must equal num_clients)
  /// and service all clients' faults with the single shared worker until
  /// every kernel completes.
  MultiClientResult run(const std::vector<WorkloadSpec>& specs);

  UvmDriver& driver(std::uint32_t client) { return node_.driver(client); }

  const TenantConfig& tenant(std::uint32_t client) const {
    return tenants_.at(client);
  }

  /// Client i's private trace; null unless config.obs.trace was set.
  const Tracer* client_tracer(std::uint32_t client) const {
    return config_.obs.trace ? &node_.tracer(client) : nullptr;
  }

  /// Every run so far, read from the books: the node's snapshot
  /// (Node::metrics) plus each tenant's contention ledger summed over runs
  /// ("tenant.NNNN.*").
  MetricsRegistry metrics() const;

  /// Event-engine stats (launch, interrupt and per-batch service events,
  /// idle ns skipped between arrivals, …); they accumulate across runs.
  const EventEngine::Stats& engine_stats() const noexcept {
    return node_.engine().stats();
  }

 private:
  SystemConfig config_;
  std::vector<TenantConfig> tenants_;
  TenantSchedConfig sched_;
  Node node_;
  std::vector<TenantStats> tenant_totals_;  // empty before the first run
};

}  // namespace uvmsim
