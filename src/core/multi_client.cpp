#include "core/multi_client.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace uvmsim {

namespace {

/// Device memory for tenant `t`: the GPU's, capped by the tenant quota
/// (rounded up to whole 2 MB chunks, minimum two so eviction always has a
/// victim and a destination).
std::uint64_t effective_memory_bytes(const SystemConfig& config,
                                     const TenantConfig& t) {
  if (t.quota_pages == 0) return config.gpu.memory_bytes;
  const std::uint64_t quota_bytes = t.quota_pages * kPageSize;
  const std::uint64_t chunks = std::max<std::uint64_t>(
      2, (quota_bytes + kVaBlockSize - 1) / kVaBlockSize);
  return std::min(config.gpu.memory_bytes, chunks * kVaBlockSize);
}

std::vector<std::uint64_t> memory_of(const SystemConfig& config,
                                     const std::vector<TenantConfig>& tenants) {
  std::vector<std::uint64_t> bytes;
  bytes.reserve(tenants.size());
  for (const TenantConfig& t : tenants) {
    bytes.push_back(effective_memory_bytes(config, t));
  }
  return bytes;
}

/// The ledger fields metrics() publishes as tenant.NNNN.<name>.
struct TenantField {
  const char* name;
  std::uint64_t TenantStats::*member;
};
constexpr TenantField kTenantFields[] = {
    {"batches", &TenantStats::batches},
    {"faults", &TenantStats::faults},
    {"grants", &TenantStats::grants},
    {"deferrals", &TenantStats::deferrals},
    {"evictions", &TenantStats::evictions},
    {"service_ns", &TenantStats::service_ns},
    {"wait_ns", &TenantStats::wait_ns},
    {"lock_wait_ns", &TenantStats::lock_wait_ns},
};

/// Tenant i is GPU 0 of driver i.
std::vector<NodeSource> sources_of(const SystemConfig& config,
                                   const std::vector<TenantConfig>& tenants) {
  std::vector<NodeSource> sources;
  sources.reserve(tenants.size());
  for (std::uint32_t i = 0; i < tenants.size(); ++i) {
    sources.push_back({i, 0, config.seed + 0x9E37 * (i + 1), tenants[i]});
  }
  return sources;
}

}  // namespace

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
      sched_(sched),
      node_(config_, memory_of(config_, tenants_),
            sources_of(config_, tenants_), sched_) {}

MultiClientResult MultiClientSystem::run(
    const std::vector<WorkloadSpec>& specs) {
  if (specs.size() != tenants_.size()) {
    throw std::invalid_argument(
        "MultiClientSystem::run: one WorkloadSpec per client required (got " +
        std::to_string(specs.size()) + " specs for " +
        std::to_string(tenants_.size()) + " clients)");
  }
  std::vector<NodeLaunch> launches;
  launches.reserve(specs.size());
  for (std::uint32_t i = 0; i < specs.size(); ++i) {
    UvmDriver& d = node_.driver(i);
    const PageId base = d.va_space().total_pages();
    for (const auto& alloc : specs[i].allocs) {
      d.managed_alloc(alloc.bytes, alloc.name, alloc.init, alloc.advise);
    }
    launches.push_back({&specs[i].kernel, base});
  }

  NodeResult run = node_.run(launches);
  MultiClientResult result;
  result.per_client = std::move(run.per_driver);
  result.per_tenant = std::move(run.per_source);
  result.makespan_ns = run.makespan_ns;
  result.worker_busy_ns = run.worker_busy_ns;
  result.batches_serviced = run.batches;
  result.sched_policy = sched_.policy;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    TenantStats& ts = result.per_tenant[i];
    ts.weight = tenants_[i].weight;
    ts.quota_pages = tenants_[i].quota_pages == 0
                         ? 0
                         : effective_memory_bytes(config_, tenants_[i]) /
                               kPageSize;
    ts.evictions = result.per_client[i].evictions;
  }
  tenant_totals_.resize(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    for (const TenantField& f : kTenantFields) {
      tenant_totals_[i].*f.member += result.per_tenant[i].*f.member;
    }
  }
  return result;
}

MetricsRegistry MultiClientSystem::metrics() const {
  MetricsRegistry m = node_.metrics();
  char name[64];
  for (std::size_t i = 0; i < tenant_totals_.size(); ++i) {
    for (const TenantField& f : kTenantFields) {
      std::snprintf(name, sizeof(name), "tenant.%04zu.%s", i, f.name);
      m.counters[name] = tenant_totals_[i].*f.member;
    }
  }
  return m;
}

}  // namespace uvmsim
