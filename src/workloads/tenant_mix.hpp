// Multi-tenant scenario matrix: rosters of many small workloads plus the
// per-tenant configuration cycles the fairness harness and the CLI use.
//
// The point is scale: a 1k-client server run needs 1k workload specs whose
// footprints are small enough that the whole roster simulates in seconds,
// yet heterogeneous enough that tenants contend unevenly (the paper's
// mixed-application server scenario). All sizing is deterministic in
// (index, seed) so rosters are byte-identical across runs.
#pragma once

#include <cstdint>
#include <vector>

#include "uvm/tenant.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

enum class TenantMix : std::uint8_t {
  kUniform,  // every tenant runs the same small stream triad
  kMixed,    // cycle stream / regular / fft / random with jittered sizes
};

/// Build one WorkloadSpec per tenant. `footprint_kb` scales the per-tenant
/// data size (mixed tenants jitter around it deterministically by index).
std::vector<WorkloadSpec> make_tenant_roster(std::uint32_t n, TenantMix mix,
                                             std::uint64_t seed = 0,
                                             std::uint64_t footprint_kb = 256);

/// Build one TenantConfig per tenant, cycling `weight_cycle` (empty =
/// all weight 1.0) and applying the same quota / per-grant cap to all.
std::vector<TenantConfig> make_tenant_matrix(
    std::uint32_t n, const std::vector<double>& weight_cycle = {},
    std::uint64_t quota_pages = 0, std::uint32_t max_batches_per_grant = 0);

}  // namespace uvmsim
