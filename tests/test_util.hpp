// Shared helpers for the test suite.
#pragma once

#include <cstddef>
#include <ostream>
#include <random>
#include <vector>

#include "core/system.hpp"
#include "obs/trace.hpp"
#include "uvm/tenant.hpp"

namespace uvmsim {

/// gtest printer for trace events, so a failed comparison shows each
/// event's kind, name, track, times and args instead of a byte dump.
inline void PrintTo(const TraceEvent& e, std::ostream* os) {
  *os << (e.kind == TraceEvent::Kind::kSpan ? "span" : "instant") << " \""
      << e.name << "\" track " << e.track << " [" << e.begin_ns << ", "
      << e.end_ns << "] {";
  for (std::size_t i = 0; i < e.args.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << e.args[i].first << '=' << e.args[i].second;
  }
  *os << '}';
}

}  // namespace uvmsim

namespace uvmsim::testutil {

/// The standard small testbed: Titan V fault-path constraints with GPU
/// memory scaled down so end-to-end runs finish in milliseconds.
inline SystemConfig small_config(std::uint64_t gpu_mb = 256) {
  return presets::scaled_titan_v(gpu_mb);
}

/// One randomized scenario derived deterministically from `seed`, shared
/// by the property suites (invariants, tracer, metrics) so they all fuzz
/// the exact same scenario space.
struct FuzzCase {
  WorkloadSpec spec;
  SystemConfig config;  // parallelism left at serial; tests override
};

inline FuzzCase make_fuzz_case(std::uint64_t seed) {
  std::mt19937_64 rng(0x1429A11DULL ^ (seed * 0x9E3779B97F4A7C15ULL));
  FuzzCase c{make_stream_triad(1 << 14), small_config()};

  switch (rng() % 4) {
    case 0:
      c.spec = make_random((4ULL + rng() % 28) << 20, rng());
      break;
    case 1:
      c.spec = make_stream_triad(1ULL << (13 + rng() % 4),
                                 1 + static_cast<std::uint32_t>(rng() % 2));
      break;
    case 2:
      c.spec = make_vecadd_coalesced(1ULL << (13 + rng() % 4));
      break;
    default:
      c.spec = make_vecadd_paged(32, 1 + static_cast<std::uint32_t>(rng() % 3));
      break;
  }
  c.config.seed = rng();
  c.config.driver.prefetch_enabled = rng() % 2 == 0;
  c.config.driver.big_page_promotion = c.config.driver.prefetch_enabled;
  c.config.driver.batch_size = 64u << (rng() % 3);
  c.config.driver.parallelism.workers =
      2u << (rng() % 3);  // 2, 4, or 8 simulated driver threads
  return c;
}

/// The same scenarios with the cross-layer fault injector armed. The
/// draws extending `make_fuzz_case` come from a separate stream so the
/// base cases above stay byte-for-byte what they were.
inline FuzzCase make_injected_fuzz_case(std::uint64_t seed) {
  FuzzCase c = make_fuzz_case(seed);
  std::mt19937_64 rng(0xFA17B07ULL ^ (seed * 0x9E3779B97F4A7C15ULL));
  auto& inj = c.config.driver.inject;
  inj.enabled = true;
  inj.seed = rng();
  inj.transfer_error_prob = 0.05 * static_cast<double>(rng() % 4);   // 0..0.15
  inj.dma_map_error_prob = 0.05 * static_cast<double>(rng() % 4);
  inj.interrupt_delay_prob = 0.05 * static_cast<double>(rng() % 3);
  inj.interrupt_loss_prob = 0.02 * static_cast<double>(rng() % 2);
  inj.storm_prob = 0.05 * static_cast<double>(rng() % 3);
  inj.storm_faults = 512u << (rng() % 3);
  c.config.driver.retry.max_attempts =
      2 + static_cast<std::uint32_t>(rng() % 3);
  return c;
}

/// The injected scenarios with the fatal-fault classes and the recovery
/// ladder armed on top. Separate draw stream again: arming fatal faults
/// must not perturb the transient-injection schedules above.
inline FuzzCase make_fatal_fuzz_case(std::uint64_t seed) {
  FuzzCase c = make_injected_fuzz_case(seed);
  std::mt19937_64 rng(0xFA7A1ULL ^ (seed * 0x9E3779B97F4A7C15ULL));
  auto& inj = c.config.driver.inject;
  inj.ecc_double_bit_prob = 0.002 * static_cast<double>(rng() % 4);
  inj.poison_prob = 0.002 * static_cast<double>(rng() % 4);
  inj.ce_permanent_prob = 0.25 * static_cast<double>(rng() % 3);  // 0..0.5
  inj.wedge_prob = 0.01 * static_cast<double>(rng() % 3);
  inj.wedge_gpu_reset_frac = 0.5 * static_cast<double>(rng() % 3);
  auto& rec = c.config.driver.recovery;
  rec.enabled = true;
  rec.watchdog_stuck_wakeups = 1 + static_cast<std::uint32_t>(rng() % 3);
  // A small pool occasionally overflows into a tier-4 reset.
  rec.retired_page_pool = 64u << (rng() % 4);
  return c;
}

/// Oversubscribed scenarios with thrashing pins and the access-counter
/// channel armed — the regime where counter-driven promotion actually
/// fires. Separate draw stream again, so the base cases stay untouched.
inline FuzzCase make_counter_fuzz_case(std::uint64_t seed) {
  std::mt19937_64 rng(0xACCE55ULL ^ (seed * 0x9E3779B97F4A7C15ULL));
  FuzzCase c{make_random((12ULL + rng() % 21) << 20, rng()),
             small_config(8 + 4 * (rng() % 3))};
  c.config.seed = rng();
  c.config.driver.prefetch_enabled = false;
  c.config.driver.big_page_promotion = false;
  c.config.driver.batch_size = 128u << (rng() % 2);
  c.config.driver.thrash.enabled = true;
  c.config.driver.thrash.mitigation = ThrashMitigation::kPin;
  auto& ac = c.config.driver.access_counters;
  ac.enabled = true;
  ac.granularity_pages = 4u << (rng() % 4);  // 4, 8, 16, or 32 pages
  ac.threshold = 16u << (rng() % 4);
  ac.buffer_entries = 8u << (rng() % 6);     // down to 8: forces drops
  ac.batch_size = 8u << (rng() % 3);
  ac.evict_for_promotion = (rng() % 2) == 0;  // both promotion policies
  return c;
}

/// One randomized multi-tenant server scenario: a roster of tenants with
/// mixed weights, per-grant caps, occasional oversubscription quotas, and
/// heterogeneous per-tenant workloads, under one of the weighted
/// arbitration disciplines. Separate draw stream, like the other fuzz
/// extensions, so the single-client cases stay byte-for-byte what they
/// were.
struct TenantFuzzCase {
  std::vector<WorkloadSpec> specs;
  std::vector<TenantConfig> tenants;
  TenantSchedConfig sched;
  SystemConfig config;
};

inline TenantFuzzCase make_tenant_fuzz_case(std::uint64_t seed) {
  std::mt19937_64 rng(0x7E4A47ULL ^ (seed * 0x9E3779B97F4A7C15ULL));
  TenantFuzzCase c;
  c.config = small_config(16);
  c.config.seed = rng();
  // Prefetch migrates whole 2 MB blocks on first touch, which collapses
  // the fault stream to ~one batch per tenant — no contention to
  // arbitrate. The fairness properties need a dense fault stream.
  c.config.driver.prefetch_enabled = false;
  c.config.driver.big_page_promotion = false;
  c.config.driver.batch_size = 64u << (rng() % 2);
  c.sched.policy = rng() % 2 == 0 ? TenantSchedPolicy::kStride
                                  : TenantSchedPolicy::kDeficitRoundRobin;
  c.sched.drr_quantum_faults = 64u << (rng() % 3);

  const std::uint32_t n = 4 + static_cast<std::uint32_t>(rng() % 13);
  for (std::uint32_t i = 0; i < n; ++i) {
    TenantConfig t;
    t.weight = static_cast<double>(1u << (rng() % 3));  // 1, 2, or 4
    t.max_batches_per_grant = 1 + static_cast<std::uint32_t>(rng() % 3);
    std::uint64_t kb = 512 + rng() % 1536;  // 0.5 .. 2 MB
    if (rng() % 4 == 0) {
      // Quota'd tenant: cap residency at 2..6 MB and size the footprint
      // past the cap so the quota actually applies eviction pressure.
      t.quota_pages = 512 * (1 + rng() % 3);
      kb = 4096 + rng() % 4096;  // 4 .. 8 MB
    }
    c.tenants.push_back(t);
    switch (rng() % 4) {
      case 0:
        c.specs.push_back(make_stream_triad(kb * 1024 / (3 * sizeof(double))));
        break;
      case 1:
        c.specs.push_back(make_regular(kb * 1024));
        break;
      case 2:
        c.specs.push_back(make_random(kb * 1024, rng()));
        break;
      default:
        c.specs.push_back(
            make_vecadd_coalesced(kb * 1024 / (3 * sizeof(float))));
        break;
    }
  }
  return c;
}

}  // namespace uvmsim::testutil
