// A multi-tenant UVM "server": many GPU clients sharing one driver worker.
//
// Figure 2 shows UVM as a client-server architecture: "one or more
// software clients (user-level GPU or host code)" served by one host
// driver. The paper's single-GPU study explicitly positions itself as
// "a base and foundation for studying the interactions among multiple
// devices on the same systems" (§1) and §6 predicts the serial driver
// bottleneck hits "any vendor implementing HMM for parallel devices".
//
// MultiClientSystem instantiates N independent tenants (each with its own
// GPU: fault buffer, memory, VA space) whose fault batches are serviced
// by ONE driver worker on a shared timeline: while the worker services
// tenant A, tenant B's arrived faults wait. Per-tenant TenantConfig adds
// a fair-share weight, an oversubscription quota (enforced by capping the
// tenant's device memory, so the stock eviction machinery applies the
// pressure), and a per-grant batch cap; TenantScheduler arbitrates the
// worker across tenants (FCFS / deficit-round-robin / stride).
//
// Arbitration runs on the discrete-event engine. Under kFcfs each
// contending tenant posts its earliest fault arrival as an event keyed
// (time, client), so the worker always wakes for the oldest arrival and
// ties at equal timestamps deterministically favor the lowest client
// index — bit-identical to the pre-tenant system. Under the weighted
// policies the scheduler picks among the backlogged tenants (arrival <=
// grant time) and posts ONE grant event for the winner; scheduler state
// advances only on explicit charges of simulated quantities, so decisions
// are byte-identical across repeat runs.
//
// Contention accounting: every serviced batch records its queueing delay
// (service start minus the earliest fault arrival it contains), and every
// grant charges the tenants left waiting with the overlap between their
// backlog and the grant — the per-tenant view of the shared driver locks
// (VABlock, fault buffer) being held on someone else's behalf.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/system.hpp"
#include "uvm/tenant.hpp"
#include "uvm/tenant_sched.hpp"

namespace uvmsim {

struct MultiClientResult {
  std::vector<RunResult> per_client;
  SimTime makespan_ns = 0;        // all clients complete
  SimTime worker_busy_ns = 0;     // driver time spent servicing batches
  std::uint64_t batches_serviced = 0;

  // Multi-tenant contention ledger (one entry per tenant) and the policy
  // that produced it. Filled on every run; with the default uniform
  // FCFS configuration the fields above are bit-identical to the
  // pre-tenant system and this is pure extra observability.
  std::vector<TenantStats> per_tenant;
  TenantSchedPolicy sched_policy = TenantSchedPolicy::kFcfs;
};

class MultiClientSystem {
 public:
  /// Legacy uniform roster: every client gets the same per-GPU
  /// configuration (its own GPU memory of config.gpu.memory_bytes),
  /// weight 1, no quota, FCFS arbitration. Seeds are decorrelated per
  /// client. With config.obs.trace set, each client records into its OWN
  /// tracer (one timeline per client — see client_tracer), keeping trace
  /// streams isolated under contention.
  MultiClientSystem(SystemConfig config, std::uint32_t num_clients);

  /// Multi-tenant roster: tenants[i] configures client i (weight, quota,
  /// per-grant cap) and `sched` selects the arbitration discipline.
  /// Uniform weights + quotas off + kFcfs is bit-identical to the legacy
  /// constructor.
  MultiClientSystem(SystemConfig config, std::vector<TenantConfig> tenants,
                    TenantSchedConfig sched = {});

  /// Launch specs[i] on client i (specs.size() must equal num_clients)
  /// and service all clients' faults with the single shared worker until
  /// every kernel completes.
  MultiClientResult run(const std::vector<WorkloadSpec>& specs);

  std::uint32_t num_clients() const noexcept {
    return static_cast<std::uint32_t>(clients_.size());
  }
  UvmDriver& driver(std::uint32_t client) { return clients_.at(client)->driver; }

  const TenantConfig& tenant(std::uint32_t client) const {
    return tenants_.at(client);
  }
  const TenantSchedConfig& sched_config() const noexcept { return sched_; }

  /// Client i's private trace; null unless config.obs.trace was set.
  const Tracer* client_tracer(std::uint32_t client) const {
    return clients_.at(client)->tracer.get();
  }

  /// Per-tenant counters ("tenant.NNNN.*") mirrored after run(); empty
  /// unless config.obs.metrics was set.
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Event-engine stats of the last run() (arbitration events, idle ns
  /// skipped between arrivals, …).
  const EventEngine::Stats& engine_stats() const noexcept {
    return engine_stats_;
  }

 private:
  struct Client {
    Client(const SystemConfig& config, std::uint64_t gpu_memory_bytes,
           std::uint64_t seed, bool trace)
        : tracer(trace ? std::make_unique<Tracer>() : nullptr),
          driver(config.driver, gpu_memory_bytes, config.gpu.num_sms,
                 config.pcie, nullptr, Obs{tracer.get(), nullptr}),
          gpu(config.gpu, seed) {
      gpu.set_obs(Obs{tracer.get(), nullptr});
      if (tracer) {
        tracer->set_track_name(tracks::kDriver, "uvm driver");
        tracer->set_track_name(tracks::kGpu, "gpu");
      }
    }

    std::unique_ptr<Tracer> tracer;  // must precede driver/gpu (they hold
                                     // pointers); null = tracing off
    UvmDriver driver;
    GpuEngine gpu;
    SimTime compute_ns = 0;
    SimTime done_at = 0;
    bool done = false;
  };

  bool client_finished(const Client& c) const {
    return c.gpu.all_done() && c.gpu.fault_buffer().empty();
  }

  /// Device memory for tenant `t`: the GPU's, capped by the tenant quota
  /// (rounded up to whole 2 MB chunks, minimum two so eviction always has
  /// a victim and a destination).
  static std::uint64_t effective_memory_bytes(const SystemConfig& config,
                                              const TenantConfig& t);

  void mirror_tenant_metrics(const MultiClientResult& result);

  SystemConfig config_;
  std::vector<TenantConfig> tenants_;
  TenantSchedConfig sched_;
  std::unique_ptr<TenantScheduler> scheduler_;
  std::vector<std::unique_ptr<Client>> clients_;
  MetricsRegistry metrics_;
  EventEngine::Stats engine_stats_;
};

}  // namespace uvmsim
