// Heap allocations per emitted fault record. The fault path's structures
// (µTLBs, the dedup table, the VABlock grouping, the evictor's order, and
// the engine's warp arena and park index) own storage they reuse, so a
// simulation's run() allocates far less than once per fault record: what
// remains is mostly the per-batch log. This binary replaces the global
// operator new to count allocations, so the budget is exact and holds on
// any host.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "core/multi_client.hpp"
#include "core/system.hpp"
#include "workloads/tenant_mix.hpp"
#include "workloads/workload.hpp"

namespace {

std::uint64_t g_allocations = 0;
bool g_counting = false;

void* counted_malloc(std::size_t size) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace uvmsim {
namespace {

constexpr double kMaxAllocationsPerFault = 0.1;

/// Allocations made inside one run() of `spec`, per emitted fault record.
double allocations_per_fault(SystemConfig config, const WorkloadSpec& spec) {
  System system(std::move(config));
  g_allocations = 0;
  g_counting = true;
  const RunResult result = system.run(spec);
  g_counting = false;
  const std::uint64_t allocations = g_allocations;
  EXPECT_GT(result.total_faults, 0u);
  return static_cast<double>(allocations) /
         static_cast<double>(std::max<std::uint64_t>(result.total_faults, 1));
}

/// The same for one run() of a mixed multi-tenant node: one driver and one
/// GPU engine per tenant, arbitrated by stride scheduling.
double allocations_per_fault(std::uint32_t tenants) {
  SystemConfig config = presets::scaled_titan_v(8);
  config.driver.batch_size = 64;
  TenantSchedConfig sched;
  sched.policy = TenantSchedPolicy::kStride;
  MultiClientSystem node(config, make_tenant_matrix(tenants, {1.0, 2.0, 4.0}),
                         sched);
  const std::vector<WorkloadSpec> specs =
      make_tenant_roster(tenants, TenantMix::kMixed, 1, 2048);
  g_allocations = 0;
  g_counting = true;
  const MultiClientResult result = node.run(specs);
  g_counting = false;
  const std::uint64_t allocations = g_allocations;
  std::uint64_t faults = 0;
  for (const RunResult& run : result.per_client) faults += run.total_faults;
  EXPECT_GT(faults, 0u);
  return static_cast<double>(allocations) /
         static_cast<double>(std::max<std::uint64_t>(faults, 1));
}

TEST(AllocBudget, RandomOversubscribed) {
  const double per_fault = allocations_per_fault(
      presets::scaled_titan_v(4), make_random(16ULL << 20, 1));
  EXPECT_LE(per_fault, kMaxAllocationsPerFault);
}

TEST(AllocBudget, GaussSeidelReadWriteStencil) {
  GaussSeidelParams params;
  params.nx = 1024;
  params.ny = 512;
  const double per_fault = allocations_per_fault(presets::scaled_titan_v(2),
                                                 make_gauss_seidel(params));
  EXPECT_LE(per_fault, kMaxAllocationsPerFault);
}

TEST(AllocBudget, GemmTiled) {
  GemmParams params;
  params.n = 512;
  const double per_fault =
      allocations_per_fault(presets::scaled_titan_v(2), make_gemm(params));
  EXPECT_LE(per_fault, kMaxAllocationsPerFault);
}

TEST(AllocBudget, MixedTenantsOnOneNode) {
  EXPECT_LE(allocations_per_fault(4), kMaxAllocationsPerFault);
}

}  // namespace
}  // namespace uvmsim
